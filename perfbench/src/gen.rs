//! Seeded job generators.
//!
//! Every job is drawn from the run's seed and rendered to metalanguage
//! source text here, before its timer starts; the system under test only
//! ever receives that text. The named ASTs stay with the job so the
//! oracles can judge the answer independently of the code under test.

use hoas_langs::fol::{self, FoTerm, Formula, Vocabulary};
use hoas_langs::imp::{self, Aexp, Bexp, Cmd};
use hoas_langs::lambda::{self, LTerm};
use hoas_langs::miniml::{self, Exp};
use hoas_testkit::rng::{Rng, SmallRng};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// `fol::gen_formula` depth for prenex jobs.
const PRENEX_DEPTH: u32 = 5;
/// `fol::gen_formula` depth for CNF jobs. CNF output grows exponentially
/// with input depth (a depth-7 input ran the host out of memory), so the
/// input depth is what bounds each job's output.
const CNF_DEPTH: u32 = 3;
/// `imp::gen_cmd` depth for optimizer jobs.
const IMP_DEPTH: u32 = 4;
/// Largest value a generated Mini-ML or Church arithmetic expression may
/// denote (both evaluate in unary).
const ARITH_CAP: u64 = 30;
/// Neutral-node budget of a generated `of` query term.
const OF_FUEL: i32 = 8;
/// Neutral-node budget of each half of a preservation application.
const PRES_FUEL: i32 = 3;

/// One job's input, as the oracles see it.
pub enum Input {
    /// First-order formula → prenex normal form.
    Prenex(Formula),
    /// First-order formula → prenex form with a CNF matrix.
    Cnf(Formula),
    /// Imperative program → `imp_opt`.
    Imp(Cmd),
    /// Mini-ML arithmetic program → `miniml_opt`, then `eval_hoas`.
    Ml(Exp),
    /// λProlog `of M ?T` on a closed λ-term (typable or not).
    Of(LTerm),
    /// λProlog CBV `eval E ?V` of Church arithmetic denoting this value.
    Eval(u64),
    /// λProlog preservation triple `of E ?T, eval E ?V, of ?V ?T` on a
    /// well-typed application `E`.
    Pres(LTerm),
}

impl Input {
    /// Short name of the job kind, for failure notes.
    pub fn kind(&self) -> &'static str {
        match self {
            Input::Prenex(_) => "prenex",
            Input::Cnf(_) => "cnf",
            Input::Imp(_) => "imp",
            Input::Ml(_) => "miniml",
            Input::Of(_) => "of",
            Input::Eval(_) => "eval",
            Input::Pres(_) => "preserve",
        }
    }

    /// Nodes of the input's named AST (0 for `eval`, whose AST is not
    /// kept).
    fn nodes(&self) -> usize {
        match self {
            Input::Prenex(f) | Input::Cnf(f) => f.size(),
            Input::Imp(c) => c.size(),
            Input::Ml(e) => e.size(),
            Input::Of(t) | Input::Pres(t) => t.size(),
            Input::Eval(_) => 0,
        }
    }
}

/// A generated job: its input and the source text the system receives.
/// Preservation jobs carry their three goals on three lines.
pub struct Job {
    pub input: Input,
    pub text: String,
}

#[derive(Clone, Copy)]
enum Kind {
    Prenex,
    Cnf,
    Imp,
    Ml,
    Of,
    Eval,
    Pres,
}

impl Kind {
    /// Fewest AST nodes a job of this kind has. Each generator puts much
    /// of its mass on a few tiny inputs (`λx. x`, a bare atom, a Mini-ML
    /// body that is one numeral), which a stream of distinct texts would
    /// soon use up and then redraw more and more often, so later jobs
    /// would be larger than earlier ones. Below these sizes nearly every
    /// draw repeats an earlier text; above them repeats are rare. The
    /// Mini-ML bound counts the ~85 nodes of the `add`/`mul`/`fact`
    /// definitions every program carries.
    fn min_nodes(self) -> usize {
        match self {
            Kind::Prenex | Kind::Cnf | Kind::Imp => 8,
            Kind::Ml => 96,
            Kind::Of => 9,
            Kind::Eval => 0,
            Kind::Pres => 13,
        }
    }
}

/// Draws per job before a stream gives up on finding a new text.
const MAX_REDRAWS: u32 = 10_000;

/// The fixed rewrite mix: one job of each kind in turn.
const REWRITE_MIX: [Kind; 4] = [Kind::Prenex, Kind::Cnf, Kind::Imp, Kind::Ml];
/// The fixed λProlog mix: half type inference, a quarter each of
/// evaluation and preservation.
const LP_MIX: [Kind; 4] = [Kind::Of, Kind::Eval, Kind::Of, Kind::Pres];

/// A seeded stream of jobs whose source texts never repeat.
pub struct Stream {
    rng: SmallRng,
    mix: &'static [Kind],
    next: usize,
    vocab: Vocabulary,
    /// Hashes of every text handed out (hashes, not texts, so the
    /// benchmark's own memory stays out of the measured peak).
    seen: HashSet<u64>,
    /// Draws of at least [`Kind::min_nodes`] nodes thrown away because
    /// their text had been handed out before.
    pub redraws: u64,
}

impl Stream {
    /// The `rewrite-cold` stream (also the source of `rewrite-warm`'s
    /// working set).
    pub fn rewrite(seed: u64) -> Stream {
        Stream::new(seed, &REWRITE_MIX)
    }

    /// The `lp-cold` stream.
    pub fn lp(seed: u64) -> Stream {
        Stream::new(seed, &LP_MIX)
    }

    fn new(seed: u64, mix: &'static [Kind]) -> Stream {
        Stream {
            rng: SmallRng::seed_from_u64(seed),
            mix,
            next: 0,
            vocab: Vocabulary::small(),
            seen: HashSet::new(),
            redraws: 0,
        }
    }

    /// The next job of the mix: draws until the input has at least
    /// [`Kind::min_nodes`] nodes and a text not handed out before.
    ///
    /// # Panics
    ///
    /// When a job kind's input space is used up (no new text in
    /// [`MAX_REDRAWS`] draws), rather than looping forever.
    pub fn next_job(&mut self) -> Job {
        let kind = self.mix[self.next % self.mix.len()];
        self.next += 1;
        for _ in 0..MAX_REDRAWS {
            let job = self.draw(kind);
            if job.input.nodes() < kind.min_nodes() {
                continue;
            }
            let mut h = DefaultHasher::new();
            job.text.hash(&mut h);
            if self.seen.insert(h.finish()) {
                return job;
            }
            self.redraws += 1;
        }
        panic!("no new input among {MAX_REDRAWS} draws: the input space is used up");
    }

    fn draw(&mut self, kind: Kind) -> Job {
        let rng = &mut self.rng;
        match kind {
            Kind::Prenex => {
                let f = fol::gen_formula(&self.vocab, rng, PRENEX_DEPTH);
                let text = formula_text(&f);
                Job {
                    input: Input::Prenex(f),
                    text,
                }
            }
            Kind::Cnf => {
                let f = fol::gen_formula(&self.vocab, rng, CNF_DEPTH);
                let text = formula_text(&f);
                Job {
                    input: Input::Cnf(f),
                    text,
                }
            }
            Kind::Imp => {
                let c = imp::gen_cmd(rng, IMP_DEPTH);
                let text = cmd_text(&c);
                Job {
                    input: Input::Imp(c),
                    text,
                }
            }
            Kind::Ml => {
                let e = gen_miniml(rng);
                let text = exp_text(&e);
                Job {
                    input: Input::Ml(e),
                    text,
                }
            }
            Kind::Of => {
                // One query in five is ill-typed, so the failure path runs.
                let ill_typed = rng.gen_bool(0.2);
                let t = gen_closed_typed(rng, ill_typed);
                let text = format!("of {} ?T", lterm_atom(&t));
                Job {
                    input: Input::Of(t),
                    text,
                }
            }
            Kind::Eval => {
                let (term, value) = gen_church(rng);
                let text = format!("eval {} ?V", lterm_atom(&term));
                Job {
                    input: Input::Eval(value),
                    text,
                }
            }
            Kind::Pres => {
                // A closed well-typed application, so evaluation performs
                // at least one β-step.
                let a = closed_ty(rng, 1);
                let b = closed_ty(rng, 1);
                let f = gen_closed_at(rng, &STy::arr(a.clone(), b), PRES_FUEL);
                let x = gen_closed_at(rng, &a, PRES_FUEL);
                let term = LTerm::app(f, x);
                let e = lterm_atom(&term);
                let text = format!("of {e} ?T\neval {e} ?V\nof ?V ?T");
                Job {
                    input: Input::Pres(term),
                    text,
                }
            }
        }
    }
}

// ------------------------------------------------------------ rendering --
//
// Binders are renamed `x<depth>`, which never collides with a signature
// constant; the encodings are compared up to α, so renaming is harmless.

fn paren(s: String, atomic: bool) -> String {
    if atomic {
        s
    } else {
        format!("({s})")
    }
}

fn bind(env: &mut Vec<String>, x: &str) -> String {
    let name = format!("x{}", env.len());
    env.push(x.to_string());
    name
}

fn lookup(env: &[String], x: &str) -> String {
    let pos = env
        .iter()
        .rposition(|b| b == x)
        .expect("generated programs are closed");
    format!("x{pos}")
}

fn apps(head: &str, args: &[String]) -> String {
    let mut s = head.to_string();
    for a in args {
        s.push(' ');
        s.push_str(a);
    }
    s
}

/// Renders a closed formula in the `fol` encoding's concrete syntax.
fn formula_text(f: &Formula) -> String {
    fn term(t: &FoTerm, env: &[String]) -> (String, bool) {
        match t {
            FoTerm::Var(x) => (lookup(env, x), true),
            FoTerm::Fun(g, args) if args.is_empty() => (g.clone(), true),
            FoTerm::Fun(g, args) => {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| {
                        let (s, at) = term(a, env);
                        paren(s, at)
                    })
                    .collect();
                (apps(g, &args), false)
            }
        }
    }
    fn go(f: &Formula, env: &mut Vec<String>) -> (String, bool) {
        let arg = |g: &Formula, env: &mut Vec<String>| {
            let (s, at) = go(g, env);
            paren(s, at)
        };
        match f {
            Formula::Pred(p, args) if args.is_empty() => (p.clone(), true),
            Formula::Pred(p, args) => {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| {
                        let (s, at) = term(a, env);
                        paren(s, at)
                    })
                    .collect();
                (apps(p, &args), false)
            }
            Formula::And(a, b) => (apps("and", &[arg(a, env), arg(b, env)]), false),
            Formula::Or(a, b) => (apps("or", &[arg(a, env), arg(b, env)]), false),
            Formula::Imp(a, b) => (apps("imp", &[arg(a, env), arg(b, env)]), false),
            Formula::Not(a) => (apps("not", &[arg(a, env)]), false),
            Formula::Forall(x, a) | Formula::Exists(x, a) => {
                let q = if matches!(f, Formula::Forall(..)) {
                    "forall"
                } else {
                    "exists"
                };
                let name = bind(env, x);
                let body = go(a, env).0;
                env.pop();
                (format!(r"{q} (\{name}. {body})"), false)
            }
        }
    }
    go(f, &mut Vec::new()).0
}

/// Renders a closed imperative program in the `imp` encoding's syntax.
fn cmd_text(c: &Cmd) -> String {
    fn aexp(e: &Aexp, env: &[String]) -> String {
        match e {
            Aexp::Num(n) => format!("(lit {n})"),
            Aexp::Var(x) => format!("(deref {})", lookup(env, x)),
            Aexp::Add(a, b) => format!("(add {} {})", aexp(a, env), aexp(b, env)),
            Aexp::Sub(a, b) => format!("(sub {} {})", aexp(a, env), aexp(b, env)),
            Aexp::Mul(a, b) => format!("(mul {} {})", aexp(a, env), aexp(b, env)),
        }
    }
    fn bexp(e: &Bexp, env: &[String]) -> String {
        match e {
            Bexp::Le(a, b) => format!("(le {} {})", aexp(a, env), aexp(b, env)),
            Bexp::Eq(a, b) => format!("(eqb {} {})", aexp(a, env), aexp(b, env)),
            Bexp::Not(b) => format!("(notb {})", bexp(b, env)),
            Bexp::And(a, b) => format!("(andb {} {})", bexp(a, env), bexp(b, env)),
        }
    }
    fn cmd(c: &Cmd, env: &mut Vec<String>) -> String {
        match c {
            Cmd::Skip => "skip".into(),
            Cmd::Assign(x, e) => format!("(assign {} {})", lookup(env, x), aexp(e, env)),
            Cmd::Seq(a, b) => format!("(seq {} {})", cmd(a, env), cmd(b, env)),
            Cmd::If(b, t, e) => format!("(ifc {} {} {})", bexp(b, env), cmd(t, env), cmd(e, env)),
            Cmd::While(b, body) => format!("(while {} {})", bexp(b, env), cmd(body, env)),
            Cmd::Print(e) => format!("(print {})", aexp(e, env)),
            Cmd::Local(x, init, body) => {
                let init = aexp(init, env);
                let name = bind(env, x);
                let body = cmd(body, env);
                env.pop();
                format!(r"(local {init} (\{name}. {body}))")
            }
        }
    }
    cmd(c, &mut Vec::new())
}

/// Renders a closed Mini-ML expression in the `miniml` encoding's syntax.
fn exp_text(e: &Exp) -> String {
    fn go(e: &Exp, env: &mut Vec<String>) -> String {
        match e {
            Exp::Var(x) => lookup(env, x),
            Exp::Z => "z".into(),
            Exp::S(a) => format!("(s {})", go(a, env)),
            Exp::Case(s, z, x, succ) => {
                let (s, z) = (go(s, env), go(z, env));
                let name = bind(env, x);
                let succ = go(succ, env);
                env.pop();
                format!(r"(case {s} {z} (\{name}. {succ}))")
            }
            Exp::Lam(x, b) => {
                let name = bind(env, x);
                let b = go(b, env);
                env.pop();
                format!(r"(lam (\{name}. {b}))")
            }
            Exp::App(f, a) => format!("(app {} {})", go(f, env), go(a, env)),
            Exp::Let(x, e1, e2) => {
                let e1 = go(e1, env);
                let name = bind(env, x);
                let e2 = go(e2, env);
                env.pop();
                format!(r"(letv {e1} (\{name}. {e2}))")
            }
            Exp::Fix(x, b) => {
                let name = bind(env, x);
                let b = go(b, env);
                env.pop();
                format!(r"(fix (\{name}. {b}))")
            }
        }
    }
    go(e, &mut Vec::new())
}

/// Renders a closed λ-term in the `lambda` encoding's syntax, as an atom.
fn lterm_atom(t: &LTerm) -> String {
    fn go(t: &LTerm, env: &mut Vec<String>) -> String {
        match t {
            LTerm::Var(x) => lookup(env, x),
            LTerm::Lam(x, b) => {
                let name = bind(env, x);
                let b = go(b, env);
                env.pop();
                format!(r"(lam (\{name}. {b}))")
            }
            LTerm::App(f, a) => format!("(app {} {})", go(f, env), go(a, env)),
        }
    }
    go(t, &mut Vec::new())
}

// ------------------------------------------------------------- Mini-ML --

/// An arithmetic program over `add`/`mul`/`fact`, with the three
/// definitions bound by `let` in front and simplifier redexes
/// (β on a value, case of a known constructor, dead `let` of a value)
/// sprinkled over the body.
fn gen_miniml<R: Rng>(rng: &mut R) -> Exp {
    let body = arith(rng, 3, ARITH_CAP).0;
    Exp::let_(
        "add",
        miniml::add_fn(),
        Exp::let_(
            "mul",
            miniml::mul_fn(),
            Exp::let_("fact", miniml::fact_fn(), body),
        ),
    )
}

fn arith<R: Rng>(rng: &mut R, depth: u32, cap: u64) -> (Exp, u64) {
    let (e, v) = if depth == 0 || cap < 2 || rng.gen_bool(0.25) {
        let n = rng.gen_range(0..cap.min(4) + 1);
        (Exp::num(n), n)
    } else {
        match rng.gen_range(0..3) {
            0 => {
                let n = rng.gen_range(0..4u64);
                let v = (1..=n).product::<u64>();
                if v <= cap {
                    (Exp::app(Exp::var("fact"), Exp::num(n)), v)
                } else {
                    (Exp::num(n.min(cap)), n.min(cap))
                }
            }
            1 => {
                let (a, va) = arith(rng, depth - 1, cap / 2);
                let (b, vb) = arith(rng, depth - 1, cap - va);
                (Exp::app(Exp::app(Exp::var("add"), a), b), va + vb)
            }
            _ => {
                let (a, va) = arith(rng, depth - 1, 5);
                let (b, vb) = arith(rng, depth - 1, cap / va.max(1));
                (Exp::app(Exp::app(Exp::var("mul"), a), b), va * vb)
            }
        }
    };
    let e = match rng.gen_range(0..6) {
        // (fn x => x) v — inlined by beta-value when `e` is a value.
        0 => Exp::app(Exp::lam("y", Exp::var("y")), e),
        // case (s z) of z => z | s p => e — case-of-known-constructor.
        1 => Exp::case(Exp::num(1), Exp::Z, "p", e),
        // let d = 2 in e — a dead let of a value.
        2 => Exp::let_("d", Exp::num(2), e),
        _ => e,
    };
    (e, v)
}

// ------------------------------------------------- simply typed terms --

/// Simple types over one base type.
#[derive(Clone, PartialEq)]
enum STy {
    Base,
    Arr(Box<STy>, Box<STy>),
}

impl STy {
    fn arr(a: STy, b: STy) -> STy {
        STy::Arr(Box::new(a), Box::new(b))
    }

    /// `(arguments, result)` of a curried type.
    fn uncurry(&self) -> (Vec<&STy>, &STy) {
        let mut args = Vec::new();
        let mut cur = self;
        while let STy::Arr(a, b) = cur {
            args.push(a.as_ref());
            cur = b;
        }
        (args, cur)
    }
}

fn gen_sty<R: Rng>(rng: &mut R, depth: u32) -> STy {
    if depth == 0 || rng.gen_bool(0.5) {
        STy::Base
    } else {
        STy::arr(gen_sty(rng, depth - 1), gen_sty(rng, depth - 1))
    }
}

/// A type `A1 -> … -> An -> base` with some `Ai = base`: after the
/// leading λs a variable of type `base` is in scope, so every type the
/// generator asks for is inhabited.
fn closed_ty<R: Rng>(rng: &mut R, arg_depth: u32) -> STy {
    let n = rng.gen_range(1..4usize);
    let at = rng.gen_range(0..n);
    let mut ty = STy::Base;
    for i in (0..n).rev() {
        let a = if i == at {
            STy::Base
        } else {
            gen_sty(rng, arg_depth)
        };
        ty = STy::arr(a, ty);
    }
    ty
}

/// A closed term at a random [`closed_ty`]; with `ill_typed`, one
/// neutral position holds a self-application `x x`, which no simple
/// type admits.
fn gen_closed_typed<R: Rng>(rng: &mut R, ill_typed: bool) -> LTerm {
    let ty = closed_ty(rng, 2);
    if !ill_typed {
        return gen_closed_at(rng, &ty, OF_FUEL);
    }
    let mut poison = Some(rng.gen_range(0..3u32));
    loop {
        let mut g = TypedGen {
            rng: &mut *rng,
            ctx: Vec::new(),
            fuel: OF_FUEL,
            poison,
        };
        let t = g.term(&ty);
        if g.poison.is_none() {
            return t;
        }
        poison = Some(0);
    }
}

fn gen_closed_at<R: Rng>(rng: &mut R, ty: &STy, fuel: i32) -> LTerm {
    TypedGen {
        rng,
        ctx: Vec::new(),
        fuel,
        poison: None,
    }
    .term(ty)
}

/// Type-directed generator: λ at arrow types, otherwise a variable
/// applied to generated arguments, now and then a β-redex.
struct TypedGen<'r, R: Rng> {
    rng: &'r mut R,
    ctx: Vec<STy>,
    fuel: i32,
    /// Counts down neutral positions; at zero emits `x x` and clears.
    poison: Option<u32>,
}

impl<R: Rng> TypedGen<'_, R> {
    fn has_base(&self) -> bool {
        self.ctx.contains(&STy::Base)
    }

    fn var(&self, i: usize) -> LTerm {
        LTerm::var(format!("v{i}"))
    }

    fn term(&mut self, ty: &STy) -> LTerm {
        if let STy::Arr(a, b) = ty {
            if !self.has_base() || self.fuel <= 0 || self.rng.gen_bool(0.75) {
                let name = format!("v{}", self.ctx.len());
                self.ctx.push(a.as_ref().clone());
                let body = self.term(b);
                self.ctx.pop();
                return LTerm::lam(name, body);
            }
        }
        self.neutral(ty)
    }

    /// A term of `ty` headed by a variable (a base variable is in scope).
    fn neutral(&mut self, ty: &STy) -> LTerm {
        self.fuel -= 1;
        match self.poison {
            Some(0) => {
                self.poison = None;
                let i = self.rng.gen_range(0..self.ctx.len());
                return LTerm::app(self.var(i), self.var(i));
            }
            Some(n) => self.poison = Some(n - 1),
            None => {}
        }
        if self.fuel > 0 && self.rng.gen_bool(0.15) {
            let a = gen_sty(self.rng, 1);
            let name = format!("v{}", self.ctx.len());
            self.ctx.push(a.clone());
            let body = self.term(ty);
            self.ctx.pop();
            let arg = self.term(&a);
            return LTerm::app(LTerm::lam(name, body), arg);
        }
        // Variables whose type ends in `ty`, with the argument types
        // still to supply.
        let mut cands: Vec<(usize, Vec<STy>)> = Vec::new();
        for (i, vt) in self.ctx.iter().enumerate() {
            let (args, _) = vt.uncurry();
            for k in 0..=args.len() {
                let mut rest = vt;
                for _ in 0..k {
                    if let STy::Arr(_, b) = rest {
                        rest = b;
                    }
                }
                if rest == ty {
                    cands.push((i, args[..k].iter().map(|a| (*a).clone()).collect()));
                }
            }
        }
        if cands.is_empty() {
            // Only arrow types can lack a head; a λ always exists there.
            let STy::Arr(a, b) = ty else {
                unreachable!("a base variable is in scope")
            };
            let name = format!("v{}", self.ctx.len());
            self.ctx.push(a.as_ref().clone());
            let body = self.term(b);
            self.ctx.pop();
            return LTerm::lam(name, body);
        }
        let pick = if self.fuel <= 0 {
            cands.iter().min_by_key(|(_, args)| args.len()).cloned()
        } else {
            Some(self.rng.choose(&cands).clone())
        }
        .expect("non-empty candidates");
        let mut t = self.var(pick.0);
        for a in &pick.1 {
            t = LTerm::app(t, self.term(a));
        }
        t
    }
}

/// Church arithmetic: `add`/`mul` trees of depth at most 3 over numerals
/// up to 3, denoting at most [`ARITH_CAP`].
fn gen_church<R: Rng>(rng: &mut R) -> (LTerm, u64) {
    fn go<R: Rng>(rng: &mut R, depth: u32, cap: u64) -> (LTerm, u64) {
        if depth == 0 || cap < 2 || rng.gen_bool(0.4) {
            let n = rng.gen_range(0..cap.min(3) + 1);
            return (lambda::church(n as u32), n);
        }
        if rng.gen_bool(0.5) {
            let (a, va) = go(rng, depth - 1, cap / 2);
            let (b, vb) = go(rng, depth - 1, cap - va);
            (LTerm::app(LTerm::app(lambda::church_add(), a), b), va + vb)
        } else {
            let (a, va) = go(rng, depth - 1, 5);
            let (b, vb) = go(rng, depth - 1, cap / va.max(1));
            (LTerm::app(LTerm::app(lambda::church_mul(), a), b), va * vb)
        }
    }
    // Never a bare numeral: evaluation should have work to do.
    loop {
        let (t, v) = go(rng, 3, ARITH_CAP);
        if matches!(t, LTerm::App(..)) {
            return (t, v);
        }
    }
}
