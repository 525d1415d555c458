//! First-order logic — the paper's quantifier-rule figures.
//!
//! The HOAS representation uses one base type per syntactic category:
//!
//! ```text
//! type i.                              % individuals
//! type o.                              % formulas
//! const and, or, imp : o -> o -> o.
//! const not : o -> o.
//! const forall, exists : (i -> o) -> o.
//! ```
//!
//! plus one constant per function/predicate symbol of the
//! [`Vocabulary`]. The quantifier rules of experiment E3 (prenex normal
//! form) live in `hoas-rewrite`; this module supplies the syntax, the
//! encoding, a random formula generator, and a finite-model semantics used
//! to verify that transformations preserve truth.

use crate::LangError;
use hoas_core::sig::Signature;
use hoas_core::{Term, Ty};
use hoas_syntaxdef::{Head, Part, Pieces, Table};
use hoas_testkit::rng::Rng;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// A first-order term over a vocabulary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FoTerm {
    /// An individual variable.
    Var(String),
    /// A function application (constants are 0-ary functions).
    Fun(String, Vec<FoTerm>),
}

/// A first-order formula.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Formula {
    /// Predicate application.
    Pred(String, Vec<FoTerm>),
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Imp(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Universal quantification.
    Forall(String, Box<Formula>),
    /// Existential quantification.
    Exists(String, Box<Formula>),
}

impl Formula {
    /// Conjunction constructor.
    pub fn and(a: Formula, b: Formula) -> Formula {
        Formula::And(Box::new(a), Box::new(b))
    }
    /// Disjunction constructor.
    pub fn or(a: Formula, b: Formula) -> Formula {
        Formula::Or(Box::new(a), Box::new(b))
    }
    /// Implication constructor.
    pub fn imp(a: Formula, b: Formula) -> Formula {
        Formula::Imp(Box::new(a), Box::new(b))
    }
    /// Negation constructor.
    // Not `impl Not`: these are by-value associated constructors, uniform
    // with `and`/`or`/`imp`, not operators on `&self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(a: Formula) -> Formula {
        Formula::Not(Box::new(a))
    }
    /// Universal quantification constructor.
    pub fn forall(x: impl Into<String>, a: Formula) -> Formula {
        Formula::Forall(x.into(), Box::new(a))
    }
    /// Existential quantification constructor.
    pub fn exists(x: impl Into<String>, a: Formula) -> Formula {
        Formula::Exists(x.into(), Box::new(a))
    }

    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            Formula::Pred(_, args) => 1 + args.iter().map(FoTerm::size).sum::<usize>(),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Imp(a, b) => 1 + a.size() + b.size(),
            Formula::Not(a) => 1 + a.size(),
            Formula::Forall(_, a) | Formula::Exists(_, a) => 1 + a.size(),
        }
    }

    /// Whether the formula is in prenex normal form: a (possibly empty)
    /// string of quantifiers over a quantifier-free matrix.
    pub fn is_prenex(&self) -> bool {
        fn quantifier_free(f: &Formula) -> bool {
            match f {
                Formula::Pred(..) => true,
                Formula::And(a, b) | Formula::Or(a, b) | Formula::Imp(a, b) => {
                    quantifier_free(a) && quantifier_free(b)
                }
                Formula::Not(a) => quantifier_free(a),
                Formula::Forall(..) | Formula::Exists(..) => false,
            }
        }
        match self {
            Formula::Forall(_, a) | Formula::Exists(_, a) => a.is_prenex(),
            other => quantifier_free(other),
        }
    }

    /// Number of quantifier nodes.
    pub fn quantifier_count(&self) -> usize {
        match self {
            Formula::Pred(..) => 0,
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Imp(a, b) => {
                a.quantifier_count() + b.quantifier_count()
            }
            Formula::Not(a) => a.quantifier_count(),
            Formula::Forall(_, a) | Formula::Exists(_, a) => 1 + a.quantifier_count(),
        }
    }

    /// α-equivalence: equality up to consistent renaming of quantified
    /// variables. Decided *through the HOAS encoding* — binding structure
    /// lives in metalanguage λs there, so kernel term equality (itself
    /// O(1) id comparison in the hash-consed store) is exactly
    /// object-language α-equivalence; this is the paper's adequacy claim
    /// used as an algorithm. Encode/decode round-trips are stable up to
    /// `alpha_eq` (the store canonicalizes binder-name hints, so decode
    /// may resurface different names). Formulas the encoder rejects
    /// (unbound variables) fall back to the name-sensitive derived
    /// equality.
    pub fn alpha_eq(&self, other: &Formula) -> bool {
        match (encode(self), encode(other)) {
            (Ok(a), Ok(b)) => a == b,
            _ => self == other,
        }
    }
}

impl FoTerm {
    /// Number of AST nodes.
    pub fn size(&self) -> usize {
        match self {
            FoTerm::Var(_) => 1,
            FoTerm::Fun(_, args) => 1 + args.iter().map(FoTerm::size).sum::<usize>(),
        }
    }
}

impl fmt::Display for FoTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoTerm::Var(x) => f.write_str(x),
            FoTerm::Fun(g, args) => {
                f.write_str(g)?;
                if !args.is_empty() {
                    f.write_str("(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Pred(p, args) => {
                f.write_str(p)?;
                if !args.is_empty() {
                    f.write_str("(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            f.write_str(", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    f.write_str(")")?;
                }
                Ok(())
            }
            Formula::And(a, b) => write!(f, "({a} ∧ {b})"),
            Formula::Or(a, b) => write!(f, "({a} ∨ {b})"),
            Formula::Imp(a, b) => write!(f, "({a} → {b})"),
            Formula::Not(a) => write!(f, "¬{a}"),
            Formula::Forall(x, a) => write!(f, "∀{x}. {a}"),
            Formula::Exists(x, a) => write!(f, "∃{x}. {a}"),
        }
    }
}

/// Function and predicate symbols with arities.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vocabulary {
    /// Function symbols `(name, arity)`; arity 0 gives constants.
    pub functions: Vec<(String, usize)>,
    /// Predicate symbols `(name, arity)`.
    pub predicates: Vec<(String, usize)>,
}

impl Vocabulary {
    /// A small default vocabulary used by examples and benches:
    /// constants `a, b`, unary `f`, binary `g`; predicates `p/1`, `q/2`,
    /// `r/0`.
    pub fn small() -> Vocabulary {
        Vocabulary {
            functions: vec![
                ("a".into(), 0),
                ("b".into(), 0),
                ("f".into(), 1),
                ("g".into(), 2),
            ],
            predicates: vec![("p".into(), 1), ("q".into(), 2), ("r".into(), 0)],
        }
    }

    /// Builds the HOAS signature for this vocabulary (connectives,
    /// quantifiers, and one constant per symbol).
    ///
    /// # Panics
    ///
    /// Panics if a symbol name collides with a connective name — callers
    /// control the vocabulary, so this indicates a programming error.
    pub fn signature(&self) -> Signature {
        let mut sig = table().signature().clone();
        let i = Ty::base("i");
        let o = Ty::base("o");
        for (name, arity) in &self.functions {
            sig.declare_const(
                name.as_str(),
                Ty::arrows(std::iter::repeat_n(i.clone(), *arity), i.clone()),
            )
            .expect("function symbol collides with a connective");
        }
        for (name, arity) in &self.predicates {
            sig.declare_const(
                name.as_str(),
                Ty::arrows(std::iter::repeat_n(i.clone(), *arity), o.clone()),
            )
            .expect("predicate symbol collides with a connective");
        }
        sig
    }
}

/// The connectives and quantifiers as grammar text. A vocabulary's
/// symbols are not listed: both sorts are open, so an unlisted constant
/// applied to individuals is an atom at `o` and a function application
/// at `i`.
const GRAMMAR: &str = "language fol {
    sort i;
    sort o;
    prod and : o o -> o;
    prod or : o o -> o;
    prod imp : o o -> o;
    prod not : o -> o;
    prod forall : (i) o -> o;
    prod exists : (i) o -> o;
}";

const SORT_I: u32 = 0;
productions! {
    AND = "and",
    OR = "or",
    IMP = "imp",
    NOT = "not",
    FORALL = "forall",
    EXISTS = "exists",
}

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        crate::compile(GRAMMAR, PRODUCTIONS)
            .open("o", "i")
            .open("i", "i")
    })
}

/// The representation type of formulas.
pub fn o() -> Ty {
    Ty::base("o")
}

/// The representation type of individuals.
pub fn i() -> Ty {
    Ty::base("i")
}

/// A formula or an individual, as the codec walks them.
#[derive(Clone, Copy)]
enum Ref<'a> {
    F(&'a Formula),
    T(&'a FoTerm),
}

sorted_nodes! {
    /// A decoded formula or individual.
    enum Node { F(Formula) => formula, T(FoTerm) => term }
}

/// Encodes a closed formula.
///
/// # Errors
///
/// [`LangError::UnboundVar`] on free individual variables.
pub fn encode(f: &Formula) -> Result<Term, LangError> {
    Ok(table().encode("o", Ref::F(f), &[], |node, parts| Ok(view(node, parts)))?)
}

fn view<'a>(node: Ref<'a>, parts: &mut Vec<Part<'a, Ref<'a>>>) -> Head<'a> {
    use Part::{Name, Node};
    let f = |f: &'a Formula| Node(Ref::F(f));
    let (id, children): (u32, &[Part<'a, Ref<'a>>]) = match node {
        Ref::T(FoTerm::Var(x)) => return Head::Var(x),
        Ref::F(Formula::Pred(g, args)) | Ref::T(FoTerm::Fun(g, args)) => {
            parts.extend(args.iter().map(|a| Node(Ref::T(a))));
            return Head::Open(g);
        }
        Ref::F(Formula::And(a, b)) => (AND, &[f(a), f(b)]),
        Ref::F(Formula::Or(a, b)) => (OR, &[f(a), f(b)]),
        Ref::F(Formula::Imp(a, b)) => (IMP, &[f(a), f(b)]),
        Ref::F(Formula::Not(a)) => (NOT, &[f(a)]),
        Ref::F(Formula::Forall(x, a)) => (FORALL, &[Name(x), f(a)]),
        Ref::F(Formula::Exists(x, a)) => (EXISTS, &[Name(x), f(a)]),
    };
    parts.extend_from_slice(children);
    Head::Prod(id)
}

/// Decodes a canonical term of type `o` back to a formula. Symbols not
/// among the connectives are treated as predicate/function constants.
///
/// # Errors
///
/// [`LangError::NotCanonical`] on exotic or ill-formed terms.
pub fn decode(t: &Term) -> Result<Formula, LangError> {
    let decoded = table().decode("o", t, &[], |sort, head, mut p| {
        let sub = |p: &mut Pieces<'_, Node>| Box::new(p.node().formula());
        Node::F(match head {
            Head::Var(x) => return Node::T(FoTerm::Var(x.to_string())),
            Head::Open(c) if sort == SORT_I => {
                return Node::T(FoTerm::Fun(
                    c.to_string(),
                    p.nodes().map(Node::term).collect(),
                ))
            }
            Head::Open(c) => Formula::Pred(c.to_string(), p.nodes().map(Node::term).collect()),
            Head::Prod(AND) => Formula::And(sub(&mut p), sub(&mut p)),
            Head::Prod(OR) => Formula::Or(sub(&mut p), sub(&mut p)),
            Head::Prod(IMP) => Formula::Imp(sub(&mut p), sub(&mut p)),
            Head::Prod(NOT) => Formula::Not(sub(&mut p)),
            Head::Prod(FORALL) => Formula::Forall(p.name(), sub(&mut p)),
            Head::Prod(EXISTS) => Formula::Exists(p.name(), sub(&mut p)),
            Head::Prod(_) => unreachable!("not in the grammar"),
        })
    });
    Ok(decoded?.formula())
}

// ------------------------------------------------------------ semantics --

/// A finite model: universe `{0, …, size-1}` with tabulated functions and
/// predicates.
#[derive(Clone, Debug)]
pub struct Model {
    /// Universe size (≥ 1).
    pub size: usize,
    /// Function tables, keyed by name: flat row-major tables of length
    /// `size^arity`.
    pub functions: HashMap<String, (usize, Vec<usize>)>,
    /// Predicate tables, keyed by name.
    pub predicates: HashMap<String, (usize, Vec<bool>)>,
}

impl Model {
    /// Generates a random model for the vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0.
    pub fn random(vocab: &Vocabulary, size: usize, rng: &mut impl Rng) -> Model {
        assert!(size >= 1, "model universe must be non-empty");
        let mut functions = HashMap::new();
        for (name, arity) in &vocab.functions {
            let rows = size.pow(*arity as u32);
            let table = (0..rows).map(|_| rng.gen_range(0..size)).collect();
            functions.insert(name.clone(), (*arity, table));
        }
        let mut predicates = HashMap::new();
        for (name, arity) in &vocab.predicates {
            let rows = size.pow(*arity as u32);
            let table = (0..rows).map(|_| rng.gen_bool(0.5)).collect();
            predicates.insert(name.clone(), (*arity, table));
        }
        Model {
            size,
            functions,
            predicates,
        }
    }

    fn index(&self, args: &[usize]) -> usize {
        args.iter().fold(0, |acc, &a| acc * self.size + a)
    }

    fn eval_term(&self, t: &FoTerm, env: &HashMap<String, usize>) -> Result<usize, LangError> {
        match t {
            FoTerm::Var(x) => env
                .get(x)
                .copied()
                .ok_or_else(|| LangError::UnboundVar(x.clone())),
            FoTerm::Fun(g, args) => {
                let vals: Result<Vec<usize>, _> =
                    args.iter().map(|a| self.eval_term(a, env)).collect();
                let vals = vals?;
                let (arity, table) = self
                    .functions
                    .get(g)
                    .ok_or_else(|| LangError::NotCanonical(format!("unknown function `{g}`")))?;
                if *arity != vals.len() {
                    return Err(LangError::NotCanonical(format!(
                        "function `{g}` used with arity {}",
                        vals.len()
                    )));
                }
                Ok(table[self.index(&vals)])
            }
        }
    }

    /// Evaluates a formula under a variable assignment.
    ///
    /// # Errors
    ///
    /// [`LangError::UnboundVar`] / [`LangError::NotCanonical`] for symbols
    /// missing from the model.
    pub fn eval(&self, f: &Formula, env: &mut HashMap<String, usize>) -> Result<bool, LangError> {
        match f {
            Formula::Pred(p, args) => {
                let vals: Result<Vec<usize>, _> =
                    args.iter().map(|a| self.eval_term(a, env)).collect();
                let vals = vals?;
                let (arity, table) = self
                    .predicates
                    .get(p)
                    .ok_or_else(|| LangError::NotCanonical(format!("unknown predicate `{p}`")))?;
                if *arity != vals.len() {
                    return Err(LangError::NotCanonical(format!(
                        "predicate `{p}` used with arity {}",
                        vals.len()
                    )));
                }
                Ok(table[self.index(&vals)])
            }
            Formula::And(a, b) => Ok(self.eval(a, env)? && self.eval(b, env)?),
            Formula::Or(a, b) => Ok(self.eval(a, env)? || self.eval(b, env)?),
            Formula::Imp(a, b) => Ok(!self.eval(a, env)? || self.eval(b, env)?),
            Formula::Not(a) => Ok(!self.eval(a, env)?),
            Formula::Forall(x, a) => {
                let saved = env.get(x).copied();
                for v in 0..self.size {
                    env.insert(x.clone(), v);
                    let holds = self.eval(a, env)?;
                    if !holds {
                        restore(env, x, saved);
                        return Ok(false);
                    }
                }
                restore(env, x, saved);
                Ok(true)
            }
            Formula::Exists(x, a) => {
                let saved = env.get(x).copied();
                for v in 0..self.size {
                    env.insert(x.clone(), v);
                    let holds = self.eval(a, env)?;
                    if holds {
                        restore(env, x, saved);
                        return Ok(true);
                    }
                }
                restore(env, x, saved);
                Ok(false)
            }
        }
    }

    /// Evaluates a closed formula.
    ///
    /// # Errors
    ///
    /// As for [`Model::eval`].
    pub fn eval_closed(&self, f: &Formula) -> Result<bool, LangError> {
        self.eval(f, &mut HashMap::new())
    }
}

fn restore(env: &mut HashMap<String, usize>, x: &str, saved: Option<usize>) {
    match saved {
        Some(v) => {
            env.insert(x.to_string(), v);
        }
        None => {
            env.remove(x);
        }
    }
}

// ------------------------------------------------------------ generator --

/// Generates a random closed formula of roughly the given depth.
pub fn gen_formula(vocab: &Vocabulary, rng: &mut impl Rng, depth: u32) -> Formula {
    let mut bound = Vec::new();
    gen_f(vocab, rng, depth, &mut bound)
}

fn gen_t(vocab: &Vocabulary, rng: &mut impl Rng, depth: u32, bound: &[String]) -> FoTerm {
    if !bound.is_empty() && (depth == 0 || rng.gen_bool(0.5)) {
        return FoTerm::Var(bound[rng.gen_range(0..bound.len())].clone());
    }
    // Pick a function symbol; prefer constants at depth 0.
    let candidates: Vec<&(String, usize)> = vocab
        .functions
        .iter()
        .filter(|(_, a)| depth > 0 || *a == 0)
        .collect();
    if candidates.is_empty() {
        // No constants and no bound vars: fall back to any symbol.
        let (name, arity) = &vocab.functions[rng.gen_range(0..vocab.functions.len())];
        let args = (0..*arity).map(|_| gen_t(vocab, rng, 0, bound)).collect();
        return FoTerm::Fun(name.clone(), args);
    }
    let (name, arity) = candidates[rng.gen_range(0..candidates.len())];
    let args = (0..*arity)
        .map(|_| gen_t(vocab, rng, depth.saturating_sub(1), bound))
        .collect();
    FoTerm::Fun(name.clone(), args)
}

fn gen_f(vocab: &Vocabulary, rng: &mut impl Rng, depth: u32, bound: &mut Vec<String>) -> Formula {
    if depth == 0 {
        let (name, arity) = &vocab.predicates[rng.gen_range(0..vocab.predicates.len())];
        let args = (0..*arity).map(|_| gen_t(vocab, rng, 1, bound)).collect();
        return Formula::Pred(name.clone(), args);
    }
    match rng.gen_range(0..10) {
        0 | 1 => Formula::and(
            gen_f(vocab, rng, depth - 1, bound),
            gen_f(vocab, rng, depth - 1, bound),
        ),
        2 | 3 => Formula::or(
            gen_f(vocab, rng, depth - 1, bound),
            gen_f(vocab, rng, depth - 1, bound),
        ),
        4 => Formula::imp(
            gen_f(vocab, rng, depth - 1, bound),
            gen_f(vocab, rng, depth - 1, bound),
        ),
        5 => Formula::not(gen_f(vocab, rng, depth - 1, bound)),
        6 | 7 => {
            let x = format!("x{}", bound.len());
            bound.push(x.clone());
            let inner = gen_f(vocab, rng, depth - 1, bound);
            bound.pop();
            Formula::forall(x, inner)
        }
        8 => {
            let x = format!("x{}", bound.len());
            bound.push(x.clone());
            let inner = gen_f(vocab, rng, depth - 1, bound);
            bound.pop();
            Formula::exists(x, inner)
        }
        _ => {
            let (name, arity) = &vocab.predicates[rng.gen_range(0..vocab.predicates.len())];
            let args = (0..*arity).map(|_| gen_t(vocab, rng, 1, bound)).collect();
            Formula::Pred(name.clone(), args)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hoas_core::normalize;
    use hoas_testkit::rng::SmallRng;

    fn vocab() -> Vocabulary {
        Vocabulary::small()
    }

    fn sample() -> Formula {
        // ∀x. (p(x) ∧ ∃y. q(x, y)) → r
        Formula::forall(
            "x",
            Formula::imp(
                Formula::and(
                    Formula::Pred("p".into(), vec![FoTerm::Var("x".into())]),
                    Formula::exists(
                        "y",
                        Formula::Pred(
                            "q".into(),
                            vec![FoTerm::Var("x".into()), FoTerm::Var("y".into())],
                        ),
                    ),
                ),
                Formula::Pred("r".into(), vec![]),
            ),
        )
    }

    #[test]
    fn encode_produces_expected_syntax() {
        // Isolated store: printed hints are canonical per α-class per
        // store, and other tests encode formulas with other hints.
        hoas_core::StoreHandle::isolated().enter(|| {
            let sig = vocab().signature();
            let e = encode(&sample()).unwrap();
            hoas_core::typeck::check_closed(&sig, &e, &o()).unwrap();
            assert_eq!(
                e.to_string(),
                r"forall (\x. imp (and (p x) (exists (\y. q x y))) r)"
            );
        })
    }

    #[test]
    fn decode_roundtrip() {
        let f = sample();
        let e = encode(&f).unwrap();
        // Round-trips hold up to α-equivalence: the interned store
        // canonicalizes binder hints, so decode may pick fresh names.
        assert!(decode(&e).unwrap().alpha_eq(&f));
    }

    #[test]
    fn decode_rejects_exotic_quantifier() {
        // forall applied to a non-λ.
        let exotic = Term::app(Term::cnst("forall"), Term::cnst("p"));
        assert!(matches!(decode(&exotic), Err(LangError::NotCanonical(_))));
    }

    #[test]
    fn decode_rejects_partial_connective() {
        let partial = Term::app(Term::cnst("and"), Term::cnst("r"));
        assert!(decode(&partial).is_err());
    }

    #[test]
    fn encode_rejects_free_vars() {
        let f = Formula::Pred("p".into(), vec![FoTerm::Var("loose".into())]);
        assert!(matches!(encode(&f), Err(LangError::UnboundVar(_))));
    }

    #[test]
    fn generated_formulas_roundtrip_and_typecheck() {
        let v = vocab();
        let sig = v.signature();
        let mut rng = SmallRng::seed_from_u64(99);
        for _ in 0..100 {
            let f = gen_formula(&v, &mut rng, 5);
            let e = encode(&f).unwrap();
            hoas_core::typeck::check_closed(&sig, &e, &o()).unwrap();
            assert!(decode(&e).unwrap().alpha_eq(&f));
            // Canonicalization is the identity on encodings (they are
            // already canonical).
            let c = normalize::canon_closed(&sig, &e, &o()).unwrap();
            assert_eq!(c, e);
        }
    }

    #[test]
    fn model_evaluation_sanity() {
        // p(a) ∨ ¬p(a) is valid in every model.
        let v = vocab();
        let f = Formula::or(
            Formula::Pred("p".into(), vec![FoTerm::Fun("a".into(), vec![])]),
            Formula::not(Formula::Pred(
                "p".into(),
                vec![FoTerm::Fun("a".into(), vec![])],
            )),
        );
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..20 {
            let m = Model::random(&v, 3, &mut rng);
            assert!(m.eval_closed(&f).unwrap());
        }
        // p(a) ∧ ¬p(a) is unsatisfiable.
        let g = Formula::and(
            Formula::Pred("p".into(), vec![FoTerm::Fun("a".into(), vec![])]),
            Formula::not(Formula::Pred(
                "p".into(),
                vec![FoTerm::Fun("a".into(), vec![])],
            )),
        );
        for _ in 0..20 {
            let m = Model::random(&v, 3, &mut rng);
            assert!(!m.eval_closed(&g).unwrap());
        }
    }

    #[test]
    fn quantifier_semantics() {
        // ∀x. p(x) ↔ no countermodel in the table.
        let _v = Vocabulary {
            functions: vec![],
            predicates: vec![("p".into(), 1)],
        };
        let all_true = Model {
            size: 3,
            functions: HashMap::new(),
            predicates: [("p".to_string(), (1, vec![true, true, true]))]
                .into_iter()
                .collect(),
        };
        let one_false = Model {
            size: 3,
            functions: HashMap::new(),
            predicates: [("p".to_string(), (1, vec![true, false, true]))]
                .into_iter()
                .collect(),
        };
        let forall_p = Formula::forall(
            "x",
            Formula::Pred("p".into(), vec![FoTerm::Var("x".into())]),
        );
        let exists_p = Formula::exists(
            "x",
            Formula::Pred("p".into(), vec![FoTerm::Var("x".into())]),
        );
        assert!(all_true.eval_closed(&forall_p).unwrap());
        assert!(!one_false.eval_closed(&forall_p).unwrap());
        assert!(one_false.eval_closed(&exists_p).unwrap());
    }

    #[test]
    fn shadowed_quantifier_scoping() {
        // ∀x. ∃x. p(x): inner x shadows outer; semantics = ∃x. p(x).
        let _v = Vocabulary {
            functions: vec![],
            predicates: vec![("p".into(), 1)],
        };
        let m = Model {
            size: 2,
            functions: HashMap::new(),
            predicates: [("p".to_string(), (1, vec![false, true]))]
                .into_iter()
                .collect(),
        };
        let f = Formula::forall(
            "x",
            Formula::exists(
                "x",
                Formula::Pred("p".into(), vec![FoTerm::Var("x".into())]),
            ),
        );
        assert!(m.eval_closed(&f).unwrap());
        // And the encoding respects shadowing: decode gives fresh names.
        let e = encode(&f).unwrap();
        let back = decode(&e).unwrap();
        let mut env = HashMap::new();
        assert!(m.eval(&back, &mut env).unwrap());
    }

    #[test]
    fn is_prenex_detection() {
        assert!(!sample().is_prenex());
        let prenex = Formula::forall(
            "x",
            Formula::exists(
                "y",
                Formula::and(
                    Formula::Pred("p".into(), vec![FoTerm::Var("x".into())]),
                    Formula::Pred("p".into(), vec![FoTerm::Var("y".into())]),
                ),
            ),
        );
        assert!(prenex.is_prenex());
        assert_eq!(prenex.quantifier_count(), 2);
    }
}
