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
use hoas_syntaxdef::{Head, Part, Pieces, Table};
use hoas_testkit::rng::Rng;
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

    /// Does `x` occur free in this command (read or written outside a
    /// `local` that rebinds it)? Single-binder queries (dead-`local`
    /// elimination) short-circuit on the first occurrence.
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

/// The imperative language as grammar text: the syntax facility
/// compiles it to [`signature`] and to the table [`encode`] and
/// [`decode`] walk. `loc` has no productions: a location is a
/// `local`-bound variable.
const GRAMMAR: &str = "language imp {
    sort loc;
    sort aexp;
    sort bexp;
    sort cmd;
    prod lit : int -> aexp;
    prod deref : loc -> aexp;
    prod add : aexp aexp -> aexp;
    prod sub : aexp aexp -> aexp;
    prod mul : aexp aexp -> aexp;
    prod le : aexp aexp -> bexp;
    prod eqb : aexp aexp -> bexp;
    prod notb : bexp -> bexp;
    prod andb : bexp bexp -> bexp;
    prod skip : -> cmd;
    prod assign : loc aexp -> cmd;
    prod seq : cmd cmd -> cmd;
    prod ifc : bexp cmd cmd -> cmd;
    prod while : bexp cmd -> cmd;
    prod print : aexp -> cmd;
    prod local : aexp (loc) cmd -> cmd;
}";

productions! {
    LIT = "lit",
    DEREF = "deref",
    ADD = "add",
    SUB = "sub",
    MUL = "mul",
    LE = "le",
    EQB = "eqb",
    NOTB = "notb",
    ANDB = "andb",
    SKIP = "skip",
    ASSIGN = "assign",
    SEQ = "seq",
    IFC = "ifc",
    WHILE = "while",
    PRINT = "print",
    LOCAL = "local",
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| crate::compile(GRAMMAR, PRODUCTIONS))
}

/// The HOAS signature for the imperative language.
pub fn signature() -> &'static Signature {
    table().signature()
}

/// The representation type `cmd`.
pub fn cmd_ty() -> Ty {
    Ty::base("cmd")
}

/// A node of any sort, as the codec walks them.
#[derive(Clone, Copy)]
enum Ref<'a> {
    Loc(&'a str),
    A(&'a Aexp),
    B(&'a Bexp),
    C(&'a Cmd),
}

sorted_nodes! {
    /// A decoded node of any sort.
    enum Node { Loc(String) => loc, A(Aexp) => aexp, B(Bexp) => bexp, C(Cmd) => cmd }
}

/// Encodes a command all of whose variables are `local`-bound.
///
/// # Errors
///
/// [`LangError::UnboundVar`] on variables not bound by an enclosing
/// `local`.
pub fn encode(c: &Cmd) -> Result<Term, LangError> {
    Ok(table().encode("cmd", Ref::C(c), &[], |node, parts| Ok(view(node, parts)))?)
}

fn view<'a>(node: Ref<'a>, parts: &mut Vec<Part<'a, Ref<'a>>>) -> Head<'a> {
    use Part::Node as N;
    let (id, children): (u32, &[Part<'a, Ref<'a>>]) = match node {
        Ref::Loc(x) => return Head::Var(x),
        Ref::A(Aexp::Num(n)) => (LIT, &[Part::Int(*n)]),
        Ref::A(Aexp::Var(x)) => (DEREF, &[N(Ref::Loc(x))]),
        Ref::A(Aexp::Add(a, b)) => (ADD, &[N(Ref::A(a)), N(Ref::A(b))]),
        Ref::A(Aexp::Sub(a, b)) => (SUB, &[N(Ref::A(a)), N(Ref::A(b))]),
        Ref::A(Aexp::Mul(a, b)) => (MUL, &[N(Ref::A(a)), N(Ref::A(b))]),
        Ref::B(Bexp::Le(a, b)) => (LE, &[N(Ref::A(a)), N(Ref::A(b))]),
        Ref::B(Bexp::Eq(a, b)) => (EQB, &[N(Ref::A(a)), N(Ref::A(b))]),
        Ref::B(Bexp::Not(b)) => (NOTB, &[N(Ref::B(b))]),
        Ref::B(Bexp::And(a, b)) => (ANDB, &[N(Ref::B(a)), N(Ref::B(b))]),
        Ref::C(Cmd::Skip) => (SKIP, &[]),
        Ref::C(Cmd::Assign(x, e)) => (ASSIGN, &[N(Ref::Loc(x)), N(Ref::A(e))]),
        Ref::C(Cmd::Seq(a, b)) => (SEQ, &[N(Ref::C(a)), N(Ref::C(b))]),
        Ref::C(Cmd::If(b, t, e)) => (IFC, &[N(Ref::B(b)), N(Ref::C(t)), N(Ref::C(e))]),
        Ref::C(Cmd::While(b, c)) => (WHILE, &[N(Ref::B(b)), N(Ref::C(c))]),
        Ref::C(Cmd::Print(e)) => (PRINT, &[N(Ref::A(e))]),
        Ref::C(Cmd::Local(x, e, c)) => (LOCAL, &[N(Ref::A(e)), Part::Name(x), N(Ref::C(c))]),
    };
    parts.extend_from_slice(children);
    Head::Prod(id)
}

/// Decodes a canonical term of type `cmd`.
///
/// # Errors
///
/// [`LangError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(t: &Term) -> Result<Cmd, LangError> {
    let decoded = table().decode("cmd", t, &[], |_, head, mut p| {
        let id = match head {
            Head::Var(x) => return Node::Loc(x.to_string()),
            Head::Prod(id) => id,
            Head::Open(_) => unreachable!("no sort is open"),
        };
        let a = |p: &mut Pieces<'_, Node>| Box::new(p.node().aexp());
        let b = |p: &mut Pieces<'_, Node>| Box::new(p.node().bexp());
        let c = |p: &mut Pieces<'_, Node>| Box::new(p.node().cmd());
        match id {
            LIT => Node::A(Aexp::Num(p.int())),
            DEREF => Node::A(Aexp::Var(p.node().loc())),
            ADD => Node::A(Aexp::Add(a(&mut p), a(&mut p))),
            SUB => Node::A(Aexp::Sub(a(&mut p), a(&mut p))),
            MUL => Node::A(Aexp::Mul(a(&mut p), a(&mut p))),
            LE => Node::B(Bexp::Le(a(&mut p), a(&mut p))),
            EQB => Node::B(Bexp::Eq(a(&mut p), a(&mut p))),
            NOTB => Node::B(Bexp::Not(b(&mut p))),
            ANDB => Node::B(Bexp::And(b(&mut p), b(&mut p))),
            SKIP => Node::C(Cmd::Skip),
            ASSIGN => Node::C(Cmd::Assign(p.node().loc(), p.node().aexp())),
            SEQ => Node::C(Cmd::Seq(c(&mut p), c(&mut p))),
            IFC => Node::C(Cmd::If(p.node().bexp(), c(&mut p), c(&mut p))),
            WHILE => Node::C(Cmd::While(p.node().bexp(), c(&mut p))),
            PRINT => Node::C(Cmd::Print(p.node().aexp())),
            LOCAL => {
                let init = p.node().aexp();
                Node::C(Cmd::Local(p.name(), init, c(&mut p)))
            }
            _ => unreachable!("not in the grammar"),
        }
    });
    Ok(decoded?.cmd())
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
        // Isolated store: printed hints are canonical per α-class per
        // store, and other tests encode programs with other hints.
        hoas_core::StoreHandle::isolated().enter(|| {
            let c = Cmd::local("x", Aexp::Num(1), Cmd::Print(Aexp::var("x")));
            let t = encode(&c).unwrap();
            assert_eq!(t.to_string(), r"local (lit 1) (\x. print (deref x))");
        })
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
    fn mentions_excludes_locals() {
        assert!(!["x", "y"].iter().any(|x| sample().mentions(x)));
        let open = Cmd::Assign("x".into(), Aexp::var("y"));
        assert!(open.mentions("x") && open.mentions("y") && !open.mentions("z"));
    }

    #[test]
    fn mentions_agrees_with_the_encoding() {
        // `local x := e in c` encodes as `local e (\x. c')`: `c` mentions
        // `x` exactly when `c'` refers to the λ's variable.
        let mut rng = SmallRng::seed_from_u64(4025);
        for _ in 0..200 {
            let c = gen_cmd(&mut rng, 4);
            let Cmd::Local(x, _, body) = &c else {
                unreachable!("generated programs declare v0")
            };
            let encoded = encode(&c).unwrap();
            let (_, args) = encoded.spine();
            let Term::Lam(_, scope) = args[1] else {
                panic!("a local's scope is a λ")
            };
            assert_eq!(body.mentions(x), scope.occurs_free(0), "var {x} in {c}");
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
    }
}
