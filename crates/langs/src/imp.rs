//! A small imperative language with local declarations — the paper's
//! extended program-transformation example.
//!
//! Variable declarations are the binding construct: `local x := e in c`
//! introduces a mutable variable scoped to `c`. In HOAS, the declared
//! variable is a metalanguage binder of type `loc`:
//!
//! ```text
//! type loc.  type aexp.  type bexp.  type cmd.
//! const lit    : int -> aexp.
//! const deref  : loc -> aexp.
//! const add, sub, mul : aexp -> aexp -> aexp.
//! const le, eqb : aexp -> aexp -> bexp.
//! const notb   : bexp -> bexp.
//! const andb   : bexp -> bexp -> bexp.
//! const skip   : cmd.
//! const assign : loc -> aexp -> cmd.
//! const seq    : cmd -> cmd -> cmd.
//! const ifc    : bexp -> cmd -> cmd -> cmd.
//! const while  : bexp -> cmd -> cmd.
//! const print  : aexp -> cmd.
//! const local  : aexp -> (loc -> cmd) -> cmd.
//! ```
//!
//! Optimizations like dead-declaration elimination — `local e (\x. c)`
//! where `c` does not use `x` — become *vacuous-binder patterns* for the
//! rewrite engine (see `hoas-rewrite`), with no occurs-check code written
//! per transformation. Programs observe the world through `print`, so
//! semantic preservation is checked by comparing output traces.

use crate::LangError;
use hoas_core::sig::Signature;
use hoas_core::{Term, Ty};
use hoas_testkit::rng::Rng;
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

/// Arithmetic expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Aexp {
    /// Integer literal.
    Num(i64),
    /// Variable read.
    Var(String),
    /// Addition.
    Add(Box<Aexp>, Box<Aexp>),
    /// Subtraction.
    Sub(Box<Aexp>, Box<Aexp>),
    /// Multiplication.
    Mul(Box<Aexp>, Box<Aexp>),
}

/// Boolean expressions.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Bexp {
    /// Less-or-equal comparison.
    Le(Box<Aexp>, Box<Aexp>),
    /// Equality comparison.
    Eq(Box<Aexp>, Box<Aexp>),
    /// Negation.
    Not(Box<Bexp>),
    /// Conjunction.
    And(Box<Bexp>, Box<Bexp>),
}

/// Commands.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Cmd {
    /// No-op.
    Skip,
    /// Assignment `x := e`.
    Assign(String, Aexp),
    /// Sequencing.
    Seq(Box<Cmd>, Box<Cmd>),
    /// Conditional.
    If(Bexp, Box<Cmd>, Box<Cmd>),
    /// Loop.
    While(Bexp, Box<Cmd>),
    /// Output.
    Print(Aexp),
    /// Declaration `local x := e in c` — the binding construct.
    Local(String, Aexp, Box<Cmd>),
}

// Not the std ops traits: these are by-value associated constructors
// mirroring the grammar, not operators on `&self`.
#[allow(clippy::should_implement_trait)]
impl Aexp {
    /// Addition constructor.
    pub fn add(a: Aexp, b: Aexp) -> Aexp {
        Aexp::Add(Box::new(a), Box::new(b))
    }
    /// Subtraction constructor.
    pub fn sub(a: Aexp, b: Aexp) -> Aexp {
        Aexp::Sub(Box::new(a), Box::new(b))
    }
    /// Multiplication constructor.
    pub fn mul(a: Aexp, b: Aexp) -> Aexp {
        Aexp::Mul(Box::new(a), Box::new(b))
    }
    /// Variable constructor.
    pub fn var(x: impl Into<String>) -> Aexp {
        Aexp::Var(x.into())
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Aexp::Num(_) | Aexp::Var(_) => 1,
            Aexp::Add(a, b) | Aexp::Sub(a, b) | Aexp::Mul(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl Bexp {
    /// `a <= b`.
    pub fn le(a: Aexp, b: Aexp) -> Bexp {
        Bexp::Le(Box::new(a), Box::new(b))
    }
    /// `a == b`.
    pub fn eq(a: Aexp, b: Aexp) -> Bexp {
        Bexp::Eq(Box::new(a), Box::new(b))
    }
    /// Negation.
    // Same rationale as `Aexp`: a grammar constructor, not `impl Not`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(b: Bexp) -> Bexp {
        Bexp::Not(Box::new(b))
    }
    /// Conjunction.
    pub fn and(a: Bexp, b: Bexp) -> Bexp {
        Bexp::And(Box::new(a), Box::new(b))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Bexp::Le(a, b) | Bexp::Eq(a, b) => 1 + a.size() + b.size(),
            Bexp::Not(b) => 1 + b.size(),
            Bexp::And(a, b) => 1 + a.size() + b.size(),
        }
    }
}

impl Cmd {
    /// Sequencing constructor.
    pub fn seq(a: Cmd, b: Cmd) -> Cmd {
        Cmd::Seq(Box::new(a), Box::new(b))
    }
    /// Conditional constructor.
    pub fn if_(b: Bexp, t: Cmd, e: Cmd) -> Cmd {
        Cmd::If(b, Box::new(t), Box::new(e))
    }
    /// Loop constructor.
    pub fn while_(b: Bexp, c: Cmd) -> Cmd {
        Cmd::While(b, Box::new(c))
    }
    /// Declaration constructor.
    pub fn local(x: impl Into<String>, init: Aexp, c: Cmd) -> Cmd {
        Cmd::Local(x.into(), init, Box::new(c))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Cmd::Skip => 1,
            Cmd::Assign(_, e) | Cmd::Print(e) => 1 + e.size(),
            Cmd::Seq(a, b) => 1 + a.size() + b.size(),
            Cmd::If(b, t, e) => 1 + b.size() + t.size() + e.size(),
            Cmd::While(b, c) => 1 + b.size() + c.size(),
            Cmd::Local(_, e, c) => 1 + e.size() + c.size(),
        }
    }

    /// α-equivalence: equality up to consistent renaming of
    /// `local`-bound variables, decided through the HOAS encoding (kernel
    /// term equality is α-equivalence — an O(1) id comparison in the
    /// hash-consed store). Encode/decode round-trips are stable up to
    /// `alpha_eq`, not derived `==` (the store canonicalizes binder-name
    /// hints). Commands the encoder rejects (globals read before
    /// assignment, which `encode` cannot scope) fall back to the
    /// name-sensitive derived equality.
    pub fn alpha_eq(&self, other: &Cmd) -> bool {
        match (encode(self), encode(other)) {
            (Ok(a), Ok(b)) => a == b,
            _ => self == other,
        }
    }

    /// Variables read or written, excluding locally declared ones.
    pub fn free_vars(&self) -> HashSet<String> {
        fn aexp(e: &Aexp, acc: &mut HashSet<String>, bound: &[String]) {
            match e {
                Aexp::Num(_) => {}
                Aexp::Var(x) => {
                    if !bound.iter().any(|b| b == x) {
                        acc.insert(x.clone());
                    }
                }
                Aexp::Add(a, b) | Aexp::Sub(a, b) | Aexp::Mul(a, b) => {
                    aexp(a, acc, bound);
                    aexp(b, acc, bound);
                }
            }
        }
        fn bexp(e: &Bexp, acc: &mut HashSet<String>, bound: &[String]) {
            match e {
                Bexp::Le(a, b) | Bexp::Eq(a, b) => {
                    aexp(a, acc, bound);
                    aexp(b, acc, bound);
                }
                Bexp::Not(b) => bexp(b, acc, bound),
                Bexp::And(a, b) => {
                    bexp(a, acc, bound);
                    bexp(b, acc, bound);
                }
            }
        }
        fn cmd(c: &Cmd, acc: &mut HashSet<String>, bound: &mut Vec<String>) {
            match c {
                Cmd::Skip => {}
                Cmd::Assign(x, e) => {
                    if !bound.iter().any(|b| b == x) {
                        acc.insert(x.clone());
                    }
                    aexp(e, acc, bound);
                }
                Cmd::Print(e) => aexp(e, acc, bound),
                Cmd::Seq(a, b) => {
                    cmd(a, acc, bound);
                    cmd(b, acc, bound);
                }
                Cmd::If(b, t, e) => {
                    bexp(b, acc, bound);
                    cmd(t, acc, bound);
                    cmd(e, acc, bound);
                }
                Cmd::While(b, body) => {
                    bexp(b, acc, bound);
                    cmd(body, acc, bound);
                }
                Cmd::Local(x, init, body) => {
                    aexp(init, acc, bound);
                    bound.push(x.clone());
                    cmd(body, acc, bound);
                    bound.pop();
                }
            }
        }
        let mut acc = HashSet::new();
        cmd(self, &mut acc, &mut Vec::new());
        acc
    }

    /// Does `x` occur free in this command? Equivalent to
    /// `free_vars().contains(x)` without materializing the set, so
    /// single-binder queries (dead-`local` elimination) stay
    /// allocation-free and can short-circuit on the first occurrence.
    pub fn mentions(&self, x: &str) -> bool {
        fn aexp(e: &Aexp, x: &str) -> bool {
            match e {
                Aexp::Num(_) => false,
                Aexp::Var(y) => y == x,
                Aexp::Add(a, b) | Aexp::Sub(a, b) | Aexp::Mul(a, b) => aexp(a, x) || aexp(b, x),
            }
        }
        fn bexp(e: &Bexp, x: &str) -> bool {
            match e {
                Bexp::Le(a, b) | Bexp::Eq(a, b) => aexp(a, x) || aexp(b, x),
                Bexp::Not(b) => bexp(b, x),
                Bexp::And(a, b) => bexp(a, x) || bexp(b, x),
            }
        }
        fn cmd(c: &Cmd, x: &str) -> bool {
            match c {
                Cmd::Skip => false,
                Cmd::Assign(y, e) => y == x || aexp(e, x),
                Cmd::Print(e) => aexp(e, x),
                Cmd::Seq(a, b) => cmd(a, x) || cmd(b, x),
                Cmd::If(b, t, e) => bexp(b, x) || cmd(t, x) || cmd(e, x),
                Cmd::While(b, body) => bexp(b, x) || cmd(body, x),
                Cmd::Local(y, init, body) => aexp(init, x) || (y != x && cmd(body, x)),
            }
        }
        cmd(self, x)
    }
}

impl fmt::Display for Aexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Aexp::Num(n) => write!(f, "{n}"),
            Aexp::Var(x) => f.write_str(x),
            Aexp::Add(a, b) => write!(f, "({a} + {b})"),
            Aexp::Sub(a, b) => write!(f, "({a} - {b})"),
            Aexp::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

impl fmt::Display for Bexp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bexp::Le(a, b) => write!(f, "{a} <= {b}"),
            Bexp::Eq(a, b) => write!(f, "{a} == {b}"),
            Bexp::Not(b) => write!(f, "!({b})"),
            Bexp::And(a, b) => write!(f, "({a}) && ({b})"),
        }
    }
}

impl fmt::Display for Cmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cmd::Skip => f.write_str("skip"),
            Cmd::Assign(x, e) => write!(f, "{x} := {e}"),
            Cmd::Seq(a, b) => write!(f, "{a}; {b}"),
            Cmd::If(b, t, e) => write!(f, "if {b} {{ {t} }} else {{ {e} }}"),
            Cmd::While(b, c) => write!(f, "while {b} {{ {c} }}"),
            Cmd::Print(e) => write!(f, "print {e}"),
            Cmd::Local(x, init, c) => write!(f, "local {x} := {init} in {{ {c} }}"),
        }
    }
}

/// The HOAS signature for the imperative language.
pub fn signature() -> &'static Signature {
    static SIG: OnceLock<Signature> = OnceLock::new();
    SIG.get_or_init(|| {
        Signature::parse(
            "type loc.
             type aexp.
             type bexp.
             type cmd.
             const lit : int -> aexp.
             const deref : loc -> aexp.
             const add : aexp -> aexp -> aexp.
             const sub : aexp -> aexp -> aexp.
             const mul : aexp -> aexp -> aexp.
             const le : aexp -> aexp -> bexp.
             const eqb : aexp -> aexp -> bexp.
             const notb : bexp -> bexp.
             const andb : bexp -> bexp -> bexp.
             const skip : cmd.
             const assign : loc -> aexp -> cmd.
             const seq : cmd -> cmd -> cmd.
             const ifc : bexp -> cmd -> cmd -> cmd.
             const while : bexp -> cmd -> cmd.
             const print : aexp -> cmd.
             const local : aexp -> (loc -> cmd) -> cmd.",
        )
        .expect("imperative-language signature is well-formed")
    })
}

/// The representation type `cmd`.
pub fn cmd_ty() -> Ty {
    Ty::base("cmd")
}

/// Encodes a command all of whose variables are `local`-bound.
///
/// # Errors
///
/// [`LangError::UnboundVar`] on variables not bound by an enclosing
/// `local`.
pub fn encode(c: &Cmd) -> Result<Term, LangError> {
    fn avar(x: &str, env: &[String]) -> Result<Term, LangError> {
        match env.iter().rposition(|b| b == x) {
            Some(pos) => Ok(Term::Var((env.len() - 1 - pos) as u32)),
            None => Err(LangError::UnboundVar(x.to_string())),
        }
    }
    fn aexp(e: &Aexp, env: &[String]) -> Result<Term, LangError> {
        match e {
            Aexp::Num(n) => Ok(Term::app(Term::cnst("lit"), Term::Int(*n))),
            Aexp::Var(x) => Ok(Term::app(Term::cnst("deref"), avar(x, env)?)),
            Aexp::Add(a, b) => Ok(Term::apps(
                Term::cnst("add"),
                [aexp(a, env)?, aexp(b, env)?],
            )),
            Aexp::Sub(a, b) => Ok(Term::apps(
                Term::cnst("sub"),
                [aexp(a, env)?, aexp(b, env)?],
            )),
            Aexp::Mul(a, b) => Ok(Term::apps(
                Term::cnst("mul"),
                [aexp(a, env)?, aexp(b, env)?],
            )),
        }
    }
    fn bexp(e: &Bexp, env: &[String]) -> Result<Term, LangError> {
        match e {
            Bexp::Le(a, b) => Ok(Term::apps(Term::cnst("le"), [aexp(a, env)?, aexp(b, env)?])),
            Bexp::Eq(a, b) => Ok(Term::apps(
                Term::cnst("eqb"),
                [aexp(a, env)?, aexp(b, env)?],
            )),
            Bexp::Not(b) => Ok(Term::app(Term::cnst("notb"), bexp(b, env)?)),
            Bexp::And(a, b) => Ok(Term::apps(
                Term::cnst("andb"),
                [bexp(a, env)?, bexp(b, env)?],
            )),
        }
    }
    fn cmd(c: &Cmd, env: &mut Vec<String>) -> Result<Term, LangError> {
        match c {
            Cmd::Skip => Ok(Term::cnst("skip")),
            Cmd::Assign(x, e) => Ok(Term::apps(
                Term::cnst("assign"),
                [avar(x, env)?, aexp(e, env)?],
            )),
            Cmd::Seq(a, b) => Ok(Term::apps(Term::cnst("seq"), [cmd(a, env)?, cmd(b, env)?])),
            Cmd::If(b, t, e) => Ok(Term::apps(
                Term::cnst("ifc"),
                [bexp(b, env)?, cmd(t, env)?, cmd(e, env)?],
            )),
            Cmd::While(b, body) => Ok(Term::apps(
                Term::cnst("while"),
                [bexp(b, env)?, cmd(body, env)?],
            )),
            Cmd::Print(e) => Ok(Term::app(Term::cnst("print"), aexp(e, env)?)),
            Cmd::Local(x, init, body) => {
                let i = aexp(init, env)?;
                env.push(x.clone());
                let b = cmd(body, env)?;
                env.pop();
                Ok(Term::apps(
                    Term::cnst("local"),
                    [i, Term::lam(x.as_str(), b)],
                ))
            }
        }
    }
    cmd(c, &mut Vec::new())
}

/// Decodes a canonical term of type `cmd`.
///
/// # Errors
///
/// [`LangError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(t: &Term) -> Result<Cmd, LangError> {
    fn var_name(t: &Term, env: &[String]) -> Result<String, LangError> {
        match t {
            Term::Var(i) => env
                .len()
                .checked_sub(1 + *i as usize)
                .and_then(|k| env.get(k))
                .cloned()
                .ok_or_else(|| LangError::NotCanonical(format!("dangling index {i}"))),
            other => Err(LangError::NotCanonical(format!(
                "expected a location variable, got `{other}`"
            ))),
        }
    }
    fn aexp(t: &Term, env: &[String]) -> Result<Aexp, LangError> {
        let (head, args) = t.spine();
        let c = match head {
            Term::Const(c) => c.as_str(),
            other => return Err(LangError::NotCanonical(format!("aexp with head `{other}`"))),
        };
        match (c, args.as_slice()) {
            ("lit", [Term::Int(n)]) => Ok(Aexp::Num(*n)),
            ("deref", [v]) => Ok(Aexp::Var(var_name(v, env)?)),
            ("add", [a, b]) => Ok(Aexp::add(aexp(a, env)?, aexp(b, env)?)),
            ("sub", [a, b]) => Ok(Aexp::sub(aexp(a, env)?, aexp(b, env)?)),
            ("mul", [a, b]) => Ok(Aexp::mul(aexp(a, env)?, aexp(b, env)?)),
            _ => Err(LangError::NotCanonical(format!("not an aexp: `{t}`"))),
        }
    }
    fn bexp(t: &Term, env: &[String]) -> Result<Bexp, LangError> {
        let (head, args) = t.spine();
        let c = match head {
            Term::Const(c) => c.as_str(),
            other => return Err(LangError::NotCanonical(format!("bexp with head `{other}`"))),
        };
        match (c, args.as_slice()) {
            ("le", [a, b]) => Ok(Bexp::le(aexp(a, env)?, aexp(b, env)?)),
            ("eqb", [a, b]) => Ok(Bexp::eq(aexp(a, env)?, aexp(b, env)?)),
            ("notb", [b]) => Ok(Bexp::not(bexp(b, env)?)),
            ("andb", [a, b]) => Ok(Bexp::and(bexp(a, env)?, bexp(b, env)?)),
            _ => Err(LangError::NotCanonical(format!("not a bexp: `{t}`"))),
        }
    }
    fn cmd(t: &Term, env: &mut Vec<String>) -> Result<Cmd, LangError> {
        let (head, args) = t.spine();
        let c = match head {
            Term::Const(c) => c.as_str(),
            other => return Err(LangError::NotCanonical(format!("cmd with head `{other}`"))),
        };
        match (c, args.as_slice()) {
            ("skip", []) => Ok(Cmd::Skip),
            ("assign", [v, e]) => Ok(Cmd::Assign(var_name(v, env)?, aexp(e, env)?)),
            ("seq", [a, b]) => Ok(Cmd::seq(cmd(a, env)?, cmd(b, env)?)),
            ("ifc", [b, th, el]) => Ok(Cmd::if_(bexp(b, env)?, cmd(th, env)?, cmd(el, env)?)),
            ("while", [b, body]) => Ok(Cmd::while_(bexp(b, env)?, cmd(body, env)?)),
            ("print", [e]) => Ok(Cmd::Print(aexp(e, env)?)),
            ("local", [init, abs]) => {
                let i = aexp(init, env)?;
                match abs {
                    Term::Lam(hint, body) => {
                        let (name, b) =
                            crate::under_binder(env, hint.as_str(), |env| cmd(body, env))?;
                        Ok(Cmd::local(name, i, b))
                    }
                    other => Err(LangError::NotCanonical(format!(
                        "local over non-λ `{other}` (exotic term)"
                    ))),
                }
            }
            _ => Err(LangError::NotCanonical(format!("not a cmd: `{t}`"))),
        }
    }
    cmd(t, &mut Vec::new())
}

// ----------------------------------------------------------- interpreter --

/// Result of running a command: its output trace.
pub type Trace = Vec<i64>;

/// Runs a command (all variables `local`-bound), collecting `print`
/// output.
///
/// # Errors
///
/// [`LangError::UnboundVar`] on undeclared variables,
/// [`LangError::OutOfFuel`] when loop iterations exceed `fuel`.
pub fn run(c: &Cmd, fuel: u64) -> Result<Trace, LangError> {
    let mut store: Vec<(String, i64)> = Vec::new();
    let mut out = Vec::new();
    let mut budget = fuel;
    exec(c, &mut store, &mut out, &mut budget)?;
    Ok(out)
}

fn lookup(store: &[(String, i64)], x: &str) -> Result<i64, LangError> {
    store
        .iter()
        .rev()
        .find(|(n, _)| n == x)
        .map(|(_, v)| *v)
        .ok_or_else(|| LangError::UnboundVar(x.to_string()))
}

fn assign(store: &mut [(String, i64)], x: &str, v: i64) -> Result<(), LangError> {
    for (n, slot) in store.iter_mut().rev() {
        if n == x {
            *slot = v;
            return Ok(());
        }
    }
    Err(LangError::UnboundVar(x.to_string()))
}

fn eval_a(e: &Aexp, store: &[(String, i64)]) -> Result<i64, LangError> {
    Ok(match e {
        Aexp::Num(n) => *n,
        Aexp::Var(x) => lookup(store, x)?,
        Aexp::Add(a, b) => eval_a(a, store)?.wrapping_add(eval_a(b, store)?),
        Aexp::Sub(a, b) => eval_a(a, store)?.wrapping_sub(eval_a(b, store)?),
        Aexp::Mul(a, b) => eval_a(a, store)?.wrapping_mul(eval_a(b, store)?),
    })
}

fn eval_b(e: &Bexp, store: &[(String, i64)]) -> Result<bool, LangError> {
    Ok(match e {
        Bexp::Le(a, b) => eval_a(a, store)? <= eval_a(b, store)?,
        Bexp::Eq(a, b) => eval_a(a, store)? == eval_a(b, store)?,
        Bexp::Not(b) => !eval_b(b, store)?,
        Bexp::And(a, b) => eval_b(a, store)? && eval_b(b, store)?,
    })
}

fn exec(
    c: &Cmd,
    store: &mut Vec<(String, i64)>,
    out: &mut Trace,
    fuel: &mut u64,
) -> Result<(), LangError> {
    match c {
        Cmd::Skip => Ok(()),
        Cmd::Assign(x, e) => {
            let v = eval_a(e, store)?;
            assign(store, x, v)
        }
        Cmd::Seq(a, b) => {
            exec(a, store, out, fuel)?;
            exec(b, store, out, fuel)
        }
        Cmd::If(b, t, e) => {
            if eval_b(b, store)? {
                exec(t, store, out, fuel)
            } else {
                exec(e, store, out, fuel)
            }
        }
        Cmd::While(b, body) => {
            while eval_b(b, store)? {
                if *fuel == 0 {
                    return Err(LangError::OutOfFuel);
                }
                *fuel -= 1;
                exec(body, store, out, fuel)?;
            }
            Ok(())
        }
        Cmd::Print(e) => {
            out.push(eval_a(e, store)?);
            Ok(())
        }
        Cmd::Local(x, init, body) => {
            let v = eval_a(init, store)?;
            store.push((x.clone(), v));
            let r = exec(body, store, out, fuel);
            store.pop();
            r
        }
    }
}

// ------------------------------------------------------------- generator --

/// Generates a random command whose variables are all `local`-bound, with
/// folding opportunities (literal arithmetic) and dead declarations mixed
/// in.
pub fn gen_cmd(rng: &mut impl Rng, depth: u32) -> Cmd {
    let mut bound = Vec::new();
    Cmd::local("v0", Aexp::Num(0), {
        let x = "v0".to_string();
        bound.push(x);
        gen_c(rng, depth, &mut bound)
    })
}

fn gen_a(rng: &mut impl Rng, depth: u32, bound: &[String]) -> Aexp {
    if depth == 0 || rng.gen_bool(0.4) {
        if !bound.is_empty() && rng.gen_bool(0.5) {
            return Aexp::var(bound[rng.gen_range(0..bound.len())].clone());
        }
        return Aexp::Num(rng.gen_range(-9..10));
    }
    let a = gen_a(rng, depth - 1, bound);
    let b = gen_a(rng, depth - 1, bound);
    match rng.gen_range(0..3) {
        0 => Aexp::add(a, b),
        1 => Aexp::sub(a, b),
        _ => Aexp::mul(a, b),
    }
}

fn gen_b(rng: &mut impl Rng, depth: u32, bound: &[String]) -> Bexp {
    match rng.gen_range(0..4) {
        0 => Bexp::le(gen_a(rng, depth, bound), gen_a(rng, depth, bound)),
        1 => Bexp::eq(gen_a(rng, depth, bound), gen_a(rng, depth, bound)),
        2 if depth > 0 => Bexp::not(gen_b(rng, depth - 1, bound)),
        _ => Bexp::le(gen_a(rng, depth, bound), gen_a(rng, depth, bound)),
    }
}

fn gen_c(rng: &mut impl Rng, depth: u32, bound: &mut Vec<String>) -> Cmd {
    if depth == 0 {
        return match rng.gen_range(0..3) {
            0 => Cmd::Skip,
            1 => Cmd::Print(gen_a(rng, 1, bound)),
            _ => Cmd::Assign(
                bound[rng.gen_range(0..bound.len())].clone(),
                gen_a(rng, 1, bound),
            ),
        };
    }
    match rng.gen_range(0..10) {
        0 | 1 => Cmd::seq(gen_c(rng, depth - 1, bound), gen_c(rng, depth - 1, bound)),
        2 | 3 => Cmd::if_(
            gen_b(rng, 1, bound),
            gen_c(rng, depth - 1, bound),
            gen_c(rng, depth - 1, bound),
        ),
        4 => {
            // A bounded loop: local counter counting down to 0.
            let x = format!("v{}", bound.len());
            bound.push(x.clone());
            let body = Cmd::seq(
                gen_c(rng, depth.saturating_sub(2), bound),
                Cmd::Assign(x.clone(), Aexp::sub(Aexp::var(x.clone()), Aexp::Num(1))),
            );
            bound.pop();
            Cmd::local(
                x.clone(),
                Aexp::Num(rng.gen_range(0..4)),
                Cmd::while_(Bexp::le(Aexp::Num(1), Aexp::var(x)), body),
            )
        }
        5 | 6 => {
            let x = format!("v{}", bound.len());
            let init = gen_a(rng, 1, bound);
            bound.push(x.clone());
            let body = gen_c(rng, depth - 1, bound);
            bound.pop();
            Cmd::local(x, init, body)
        }
        7 => Cmd::Print(gen_a(rng, 2, bound)),
        _ => Cmd::Assign(
            bound[rng.gen_range(0..bound.len())].clone(),
            gen_a(rng, 2, bound),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_testkit::rng::SmallRng;

    fn sample() -> Cmd {
        // local x := 3 in { local y := (1 + 2) in { x := x * y; print x } }
        Cmd::local(
            "x",
            Aexp::Num(3),
            Cmd::local(
                "y",
                Aexp::add(Aexp::Num(1), Aexp::Num(2)),
                Cmd::seq(
                    Cmd::Assign("x".into(), Aexp::mul(Aexp::var("x"), Aexp::var("y"))),
                    Cmd::Print(Aexp::var("x")),
                ),
            ),
        )
    }

    #[test]
    fn interpreter_runs_sample() {
        assert_eq!(run(&sample(), 1000).unwrap(), vec![9]);
    }

    #[test]
    fn encode_typechecks_and_roundtrips() {
        let c = sample();
        let t = encode(&c).unwrap();
        hoas_core::typeck::check_closed(signature(), &t, &cmd_ty()).unwrap();
        // Round-trips hold up to α-equivalence (binder hints are
        // canonicalized by the interned store).
        assert!(decode(&t).unwrap().alpha_eq(&c));
    }

    #[test]
    fn encoding_shape() {
        let c = Cmd::local("x", Aexp::Num(1), Cmd::Print(Aexp::var("x")));
        let t = encode(&c).unwrap();
        assert_eq!(t.to_string(), r"local (lit 1) (\x. print (deref x))");
    }

    #[test]
    fn encode_rejects_unbound() {
        let c = Cmd::Print(Aexp::var("ghost"));
        assert!(matches!(encode(&c), Err(LangError::UnboundVar(_))));
    }

    #[test]
    fn decode_rejects_exotic_local() {
        // local (lit 1) skip — the scope is not a λ.
        let t = Term::apps(
            Term::cnst("local"),
            [
                Term::app(Term::cnst("lit"), Term::Int(1)),
                Term::cnst("skip"),
            ],
        );
        assert!(matches!(decode(&t), Err(LangError::NotCanonical(_))));
    }

    #[test]
    fn while_loop_and_fuel() {
        // local i := 5 in while 1 <= i { print i; i := i - 1 }
        let c = Cmd::local(
            "i",
            Aexp::Num(5),
            Cmd::while_(
                Bexp::le(Aexp::Num(1), Aexp::var("i")),
                Cmd::seq(
                    Cmd::Print(Aexp::var("i")),
                    Cmd::Assign("i".into(), Aexp::sub(Aexp::var("i"), Aexp::Num(1))),
                ),
            ),
        );
        assert_eq!(run(&c, 1000).unwrap(), vec![5, 4, 3, 2, 1]);
        // Infinite loop hits the fuel limit.
        let inf = Cmd::local(
            "i",
            Aexp::Num(0),
            Cmd::while_(Bexp::eq(Aexp::Num(0), Aexp::Num(0)), Cmd::Skip),
        );
        assert!(matches!(run(&inf, 100), Err(LangError::OutOfFuel)));
    }

    #[test]
    fn shadowing_locals() {
        // local x := 1 in { local x := 2 in print x; print x }
        let c = Cmd::local(
            "x",
            Aexp::Num(1),
            Cmd::seq(
                Cmd::local("x", Aexp::Num(2), Cmd::Print(Aexp::var("x"))),
                Cmd::Print(Aexp::var("x")),
            ),
        );
        assert_eq!(run(&c, 100).unwrap(), vec![2, 1]);
        // Round-trip through the encoding freshens the inner binder but
        // preserves the trace.
        let back = decode(&encode(&c).unwrap()).unwrap();
        assert_eq!(run(&back, 100).unwrap(), vec![2, 1]);
    }

    #[test]
    fn generated_programs_roundtrip_and_run() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for _ in 0..60 {
            let c = gen_cmd(&mut rng, 4);
            let t = encode(&c).expect("generated programs are well-bound");
            hoas_core::typeck::check_closed(signature(), &t, &cmd_ty()).unwrap();
            let back = decode(&t).unwrap();
            // Traces agree (names may have been freshened).
            let t1 = run(&c, 10_000);
            let t2 = run(&back, 10_000);
            match (t1, t2) {
                (Ok(a), Ok(b)) => assert_eq!(a, b),
                (Err(LangError::OutOfFuel), Err(LangError::OutOfFuel)) => {}
                other => panic!("disagreement: {other:?}"),
            }
        }
    }

    #[test]
    fn free_vars_excludes_locals() {
        let c = sample();
        assert!(c.free_vars().is_empty());
        let open = Cmd::Assign("x".into(), Aexp::var("y"));
        let fv = open.free_vars();
        assert!(fv.contains("x") && fv.contains("y"));
    }

    #[test]
    fn mentions_agrees_with_free_vars() {
        let mut rng = SmallRng::seed_from_u64(4025);
        for _ in 0..60 {
            let c = gen_cmd(&mut rng, 4);
            let fv = c.free_vars();
            for x in ["x", "y", "z", "w", "i0", "nope"] {
                assert_eq!(c.mentions(x), fv.contains(x), "var {x} in {c}");
            }
        }
        // Shadowing: the outer binder's body occurrence is captured by the
        // inner rebinding, but the inner init still sees the outer `x`.
        let c = Cmd::local(
            "x",
            Aexp::Num(1),
            Cmd::local("x", Aexp::var("x"), Cmd::Print(Aexp::var("x"))),
        );
        assert!(!c.mentions("x"));
        let inner = Cmd::local("x", Aexp::var("x"), Cmd::Print(Aexp::var("x")));
        assert!(inner.mentions("x"));
        assert!(inner.free_vars().contains("x"));
    }
}
