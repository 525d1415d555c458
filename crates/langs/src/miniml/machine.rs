//! The environment machine behind [`super::eval_hoas`]: call-by-value
//! evaluation that reads the interned encoding directly.
//!
//! Code is a subterm of the input, borrowed for the whole run, so no term
//! is built while evaluating. A value is `s` applied some number of times
//! to `z` or to a closure: an abstraction argument of `lam` (normally a
//! `Lam` node) with a de Bruijn environment of slots. A slot holds a value,
//! or a `fix` abstraction with its environment that unrolls each time it
//! is looked up. Continuations are frames on a heap stack, and readback
//! and dropping keep their own work lists, so no part of a run recurses on
//! the host stack per node.
//!
//! The machine spends fuel where [`super::eval_beta`] does: one unit per
//! β, `letv`, `fix` unrolling and `case` branch. On closed β-normal
//! programs the two agree on the value, the error variant and the fuel
//! left: looking a variable up costs what evaluating the substituted
//! value costs there (nothing, or one `fix` unrolling), and a closure read
//! back with its slots substituted by [`subst::instantiate`] is the term
//! hereditary substitution built.

use super::signature;
use crate::LangError;
use hoas_core::{subst, Sym, Term, TermRef};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::OnceLock;

/// The Mini-ML constructors, in the order [`ctor`] tries them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Ctor {
    App,
    Lam,
    S,
    Z,
    Case,
    Letv,
    Fix,
}

const CTORS: [(Ctor, &str); 7] = [
    (Ctor::App, "app"),
    (Ctor::Lam, "lam"),
    (Ctor::S, "s"),
    (Ctor::Z, "z"),
    (Ctor::Case, "case"),
    (Ctor::Letv, "letv"),
    (Ctor::Fix, "fix"),
];

/// The constructors' symbols, resolved once from [`signature`], indexed
/// by `Ctor as usize`.
fn heads() -> &'static [Sym; 7] {
    static HEADS: OnceLock<[Sym; 7]> = OnceLock::new();
    HEADS.get_or_init(|| {
        CTORS.map(|(_, name)| {
            signature()
                .const_sym(name)
                .expect("a Mini-ML constructor")
                .clone()
        })
    })
}

/// The constructor `c` names. `Sym` equality tests the pointer first, so
/// constants that share the signature's symbols (as [`super::encode`]'s
/// do) resolve without comparing text.
fn ctor(c: &Sym) -> Option<Ctor> {
    let heads = heads();
    CTORS
        .iter()
        .map(|&(k, _)| k)
        .find(|&k| heads[k as usize] == *c)
}

fn head(k: Ctor) -> Term {
    Term::Const(heads()[k as usize].clone())
}

/// Splits `t` into its head, its first three arguments in order (padded
/// with `t`) and the length of its spine.
fn peel(t: &Term) -> (&Term, [&Term; 3], usize) {
    let mut last = [t; 3];
    let mut n = 0;
    let mut cur = t;
    while let Term::App(f, a) = cur {
        if n < 3 {
            last[n] = a.as_ref();
        }
        n += 1;
        cur = f.as_ref();
    }
    let args = match n {
        0 => [t; 3],
        1 => [last[0], t, t],
        2 => [last[1], last[0], t],
        _ => [last[2], last[1], last[0]],
    };
    (cur, args, n)
}

fn not_a_constructor(c: &Sym, n: usize) -> LangError {
    LangError::NotCanonical(format!(
        "`{c}` applied to {n} arguments is not an exp constructor"
    ))
}

/// An abstraction argument (of type `exp -> exp`) under its environment.
struct Clo<'t> {
    abs: &'t Term,
    env: Env<'t>,
}

/// `s^succs z`, or `s^succs (lam abs)` over a closure.
#[derive(Clone)]
struct Val<'t> {
    succs: u64,
    clo: Option<Rc<Clo<'t>>>,
}

const ZERO: Val<'static> = Val {
    succs: 0,
    clo: None,
};

/// What a variable is bound to: a value, or `fix abs` under its
/// environment, which unrolls (one unit of fuel) when it is looked up.
enum Slot<'t> {
    Val(Val<'t>),
    Rec(Rc<Clo<'t>>),
}

/// A de Bruijn environment: the innermost binding first.
type Env<'t> = Option<Rc<Bind<'t>>>;

struct Bind<'t> {
    slot: Slot<'t>,
    next: Env<'t>,
}

impl Drop for Bind<'_> {
    /// Drops the uniquely owned bindings below this one without
    /// recursion: the rest of the environment in a loop, and the
    /// environments of captured closures from a heap work list.
    fn drop(&mut self) {
        fn detach<'t>(b: &mut Bind<'t>, work: &mut Vec<Bind<'t>>) -> Option<Bind<'t>> {
            let clo = match std::mem::replace(&mut b.slot, Slot::Val(ZERO)) {
                Slot::Val(v) => v.clo,
                Slot::Rec(c) => Some(c),
            };
            if let Some(env) = clo.and_then(Rc::into_inner).and_then(|c| c.env) {
                work.extend(Rc::into_inner(env));
            }
            b.next.take().and_then(Rc::into_inner)
        }
        let mut work = Vec::new();
        let mut next = detach(self, &mut work);
        while let Some(mut b) = next.or_else(|| work.pop()) {
            next = detach(&mut b, &mut work);
        }
    }
}

/// The slot of variable `i`, or the variable's index above the
/// environment if it is free in the program.
fn lookup<'e, 't>(mut env: &'e Env<'t>, mut i: u32) -> Result<&'e Slot<'t>, u32> {
    while let Some(b) = env {
        if i == 0 {
            return Ok(&b.slot);
        }
        i -= 1;
        env = &b.next;
    }
    Err(i)
}

enum Frame<'t> {
    /// The function of `app` is being evaluated; the argument is next.
    Arg(&'t Term, Env<'t>),
    /// The argument is being evaluated; then the function is applied.
    Call(Val<'t>),
    /// η-short `app e` applied to a slot: `e` is being evaluated.
    CallWith(Slot<'t>),
    /// This many `s` wrap the value being computed.
    Succ(u64),
    /// The bound expression of `letv` is being evaluated.
    Let(&'t Term, Env<'t>),
    /// The scrutinee of `case` is being evaluated: the zero branch and
    /// the successor abstraction wait.
    Case(&'t Term, &'t Term, Env<'t>),
}

enum Ctl<'t> {
    Eval(&'t Term, Env<'t>),
    /// Evaluate a bound variable's slot.
    Force(Slot<'t>),
    Ret(Val<'t>),
}

struct Machine<'t, 'f> {
    fuel: &'f mut u64,
    stack: Vec<Frame<'t>>,
}

/// Evaluates the closed program `t` and reads its value back as a term.
pub(super) fn eval(t: &Term, fuel: &mut u64) -> Result<Term, LangError> {
    let mut m = Machine {
        fuel,
        stack: Vec::new(),
    };
    let mut ctl = Ctl::Eval(t, None);
    loop {
        ctl = match ctl {
            Ctl::Eval(t, env) => m.eval(t, env)?,
            Ctl::Force(x) => m.force(x)?,
            Ctl::Ret(v) => match m.stack.pop() {
                Some(frame) => m.resume(frame, v)?,
                None => return Ok(readback(&v)),
            },
        };
    }
}

impl<'t> Machine<'t, '_> {
    fn spend(&mut self) -> Result<(), LangError> {
        if *self.fuel == 0 {
            Err(LangError::OutOfFuel)
        } else {
            *self.fuel -= 1;
            Ok(())
        }
    }

    fn push_succ(&mut self) {
        match self.stack.last_mut() {
            Some(Frame::Succ(n)) => *n += 1,
            _ => self.stack.push(Frame::Succ(1)),
        }
    }

    fn eval(&mut self, t: &'t Term, env: Env<'t>) -> Result<Ctl<'t>, LangError> {
        let (h, args, n) = peel(t);
        match h {
            Term::Const(c) => {
                let Some(k) = ctor(c) else {
                    return Err(not_a_constructor(c, n));
                };
                Ok(match (k, n) {
                    (Ctor::Z, 0) => Ctl::Ret(ZERO),
                    (Ctor::Lam, 1) => Ctl::Ret(Val {
                        succs: 0,
                        clo: Some(Rc::new(Clo { abs: args[0], env })),
                    }),
                    (Ctor::S, 1) => {
                        self.push_succ();
                        Ctl::Eval(args[0], env)
                    }
                    (Ctor::App, 2) => {
                        self.stack.push(Frame::Arg(args[1], env.clone()));
                        Ctl::Eval(args[0], env)
                    }
                    (Ctor::Letv, 2) => {
                        self.stack.push(Frame::Let(args[1], env.clone()));
                        Ctl::Eval(args[0], env)
                    }
                    (Ctor::Case, 3) => {
                        self.stack.push(Frame::Case(args[1], args[2], env.clone()));
                        Ctl::Eval(args[0], env)
                    }
                    (Ctor::Fix, 1) => {
                        self.spend()?;
                        self.unroll(Rc::new(Clo { abs: args[0], env }))?
                    }
                    _ => return Err(not_a_constructor(c, n)),
                })
            }
            Term::Var(i) if n == 0 => match lookup(&env, *i) {
                Ok(Slot::Val(v)) => Ok(Ctl::Ret(v.clone())),
                Ok(Slot::Rec(c)) => {
                    let c = c.clone();
                    self.spend()?;
                    self.unroll(c)
                }
                Err(free) => Err(LangError::NotCanonical(format!(
                    "evaluating open/exotic term with head `{}`",
                    Term::Var(free)
                ))),
            },
            _ => Err(LangError::NotCanonical(format!(
                "evaluating open/exotic term with head `{h}`"
            ))),
        }
    }

    fn resume(&mut self, frame: Frame<'t>, v: Val<'t>) -> Result<Ctl<'t>, LangError> {
        match frame {
            Frame::Arg(a, env) => {
                self.stack.push(Frame::Call(v));
                Ok(Ctl::Eval(a, env))
            }
            Frame::Call(f) => self.call(f, v),
            Frame::CallWith(Slot::Val(a)) => self.call(v, a),
            Frame::CallWith(rec) => {
                self.stack.push(Frame::Call(v));
                Ok(Ctl::Force(rec))
            }
            Frame::Succ(k) => Ok(Ctl::Ret(Val {
                succs: v.succs + k,
                ..v
            })),
            Frame::Let(abs, env) => {
                self.spend()?;
                self.apply(abs, env, Slot::Val(v))
            }
            Frame::Case(zero, succ, env) => match v {
                Val {
                    succs: 0,
                    clo: None,
                } => {
                    self.spend()?;
                    Ok(Ctl::Eval(zero, env))
                }
                Val { succs, clo } if succs > 0 => {
                    self.spend()?;
                    let pred = Val {
                        succs: succs - 1,
                        clo,
                    };
                    self.apply(succ, env, Slot::Val(pred))
                }
                stuck => Err(LangError::NotCanonical(format!(
                    "case on non-numeral `{}`",
                    readback(&stuck)
                ))),
            },
        }
    }

    /// Applies the function value `f` to the argument value `a`.
    fn call(&mut self, f: Val<'t>, a: Val<'t>) -> Result<Ctl<'t>, LangError> {
        match f {
            Val {
                succs: 0,
                clo: Some(c),
            } => {
                self.spend()?;
                self.apply(c.abs, c.env.clone(), Slot::Val(a))
            }
            stuck => Err(LangError::NotCanonical(format!(
                "application of non-function `{}`",
                readback(&stuck)
            ))),
        }
    }

    /// Continues with the abstraction `abs` under `env` applied to `x`: a
    /// `Lam` binds `x`, and the η-short `s` and `app e` run as `s x` and
    /// `app e x` would.
    fn apply(&mut self, abs: &'t Term, env: Env<'t>, x: Slot<'t>) -> Result<Ctl<'t>, LangError> {
        if let Term::Lam(_, body) = abs {
            let env = Some(Rc::new(Bind { slot: x, next: env }));
            return Ok(Ctl::Eval(body.as_ref(), env));
        }
        match peel(abs) {
            (Term::Const(c), _, 0) if ctor(c) == Some(Ctor::S) => {
                self.push_succ();
                Ok(Ctl::Force(x))
            }
            (Term::Const(c), [e, ..], 1) if ctor(c) == Some(Ctor::App) => {
                self.stack.push(Frame::CallWith(x));
                Ok(Ctl::Eval(e, env))
            }
            _ => Err(LangError::NotCanonical(format!(
                "abstraction `{abs}` is neither a λ nor η-short `s` or `app e`"
            ))),
        }
    }

    /// Evaluates a bound variable's slot: a value is itself, a `fix`
    /// unrolls.
    fn force(&mut self, x: Slot<'t>) -> Result<Ctl<'t>, LangError> {
        match x {
            Slot::Val(v) => Ok(Ctl::Ret(v)),
            Slot::Rec(c) => {
                self.spend()?;
                self.unroll(c)
            }
        }
    }

    /// `fix abs` ⇒ `abs (fix abs)`; the caller has spent the fuel.
    fn unroll(&mut self, c: Rc<Clo<'t>>) -> Result<Ctl<'t>, LangError> {
        let (abs, env) = (c.abs, c.env.clone());
        self.apply(abs, env, Slot::Rec(c))
    }
}

/// Reads a value back as a term: a numeral as `s^n z`, a closure as
/// `lam` over its abstraction with the captured slots substituted.
fn readback(v: &Val<'_>) -> Term {
    let base = match &v.clo {
        None => head(Ctor::Z),
        Some(c) => close(c),
    };
    wrap_succs(base, v.succs)
}

fn wrap_succs(mut t: Term, n: u64) -> Term {
    if n > 0 {
        let s = TermRef::new(head(Ctor::S));
        for _ in 0..n {
            t = Term::app(s.clone(), t);
        }
    }
    t
}

/// Reads the closure `root` back as `lam` over its abstraction. The
/// environment's slots are instantiated innermost first, for as long as
/// the abstraction has free variables: a value slot as its readback, a
/// `fix` slot as `fix` over its own abstraction. Each closure is read
/// back once (memoised by address, so environments that share captured
/// closures cost no repeated work) on an explicit task stack.
fn close(root: &Rc<Clo<'_>>) -> Term {
    struct Task<'a, 't> {
        key: (usize, Ctor),
        acc: Term,
        env: &'a Env<'t>,
    }
    fn task<'a, 't>(c: &'a Rc<Clo<'t>>, k: Ctor) -> Task<'a, 't> {
        Task {
            key: (Rc::as_ptr(c) as usize, k),
            acc: c.abs.clone(),
            env: &c.env,
        }
    }
    let mut done: HashMap<(usize, Ctor), Term> = HashMap::new();
    let mut tasks = vec![task(root, Ctor::Lam)];
    loop {
        let top = tasks.last_mut().expect("a task is open");
        let bind = match top.env {
            Some(b) if top.acc.max_free() > 0 => b,
            _ => {
                let Task { key, acc, .. } = tasks.pop().expect("a task is open");
                let t = Term::app(head(key.1), acc);
                if tasks.is_empty() {
                    return t;
                }
                done.insert(key, t);
                continue;
            }
        };
        let (c, k, succs) = match &bind.slot {
            Slot::Val(Val { succs, clo: None }) => {
                let arg = wrap_succs(head(Ctor::Z), *succs);
                top.acc = subst::instantiate(&top.acc, &arg);
                top.env = &bind.next;
                continue;
            }
            Slot::Val(Val {
                succs,
                clo: Some(c),
            }) => (c, Ctor::Lam, *succs),
            Slot::Rec(c) => (c, Ctor::Fix, 0),
        };
        match done.get(&(Rc::as_ptr(c) as usize, k)) {
            Some(t) => {
                let arg = wrap_succs(t.clone(), succs);
                top.acc = subst::instantiate(&top.acc, &arg);
                top.env = &bind.next;
            }
            None => tasks.push(task(c, k)),
        }
    }
}
