//! Deterministic seeded workloads for the report harness (and the warm
//! image tests). Each function documents which experiment(s) it feeds.

use hoas_core::{Term, Ty};
use hoas_firstorder::{convert, DbTree, Tree};
use hoas_langs::fol::{Formula, Vocabulary};
use hoas_langs::imp::Cmd;
use hoas_langs::lambda::{self, LTerm};
use hoas_langs::miniml::{self, Exp};
use hoas_testkit::rng::SmallRng;

/// The fixed seed used everywhere so that series are reproducible.
pub const SEED: u64 = 0x4F_50_55_53;

/// E1/E2 — a substitution instance: a body with free variable `subj`,
/// an argument term, and the first-order representations (the HOAS ones
/// come from [`SubstInstance::hoas`], in the caller's store).
pub struct SubstInstance {
    /// The named body (free variable `subj`).
    pub body: LTerm,
    /// The closed argument.
    pub arg: LTerm,
    /// First-order named projections.
    pub body_tree: Tree,
    /// First-order named argument.
    pub arg_tree: Tree,
    /// De Bruijn body (with `subj` as a free name).
    pub body_db: DbTree,
    /// De Bruijn argument.
    pub arg_db: DbTree,
}

impl SubstInstance {
    /// The HOAS operands `λsubj. body` and the argument, encoded into the
    /// thread's current store.
    pub fn hoas(&self) -> (Term, Term) {
        let abs = lambda::encode(&LTerm::lam("subj", self.body.clone())).expect("closed");
        (abs, lambda::encode(&self.arg).expect("closed"))
    }
}

/// Builds a substitution instance of roughly `size` body nodes with at
/// least one occurrence of the substituted variable.
pub fn subst_instance(seed: u64, size: usize) -> SubstInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let gen = lambda::gen_open(&mut rng, size.saturating_sub(3).max(2), &["subj"]);
    // Guarantee an occurrence so the substitution is never a no-op.
    let body = LTerm::app(gen, LTerm::var("subj"));
    let arg = lambda::gen_closed(&mut rng, (size / 4).max(4));
    let body_tree = lambda::to_tree(&body);
    let arg_tree = lambda::to_tree(&arg);
    let body_db = convert::to_debruijn(&body_tree);
    let arg_db = convert::to_debruijn(&arg_tree);
    SubstInstance {
        body,
        arg,
        body_tree,
        arg_tree,
        body_db,
        arg_db,
    }
}

/// E1 — α-equivalence instance: two α-equivalent terms in all three
/// representations.
pub struct AlphaInstance {
    /// First copy, named.
    pub left_tree: Tree,
    /// Second copy (all binders renamed), named.
    pub right_tree: Tree,
    /// De Bruijn forms.
    pub left_db: DbTree,
    /// De Bruijn forms.
    pub right_db: DbTree,
    /// HOAS forms.
    pub left_hoas: Term,
    /// HOAS forms.
    pub right_hoas: Term,
}

/// Builds an α-equivalence instance of roughly `size` nodes.
pub fn alpha_instance(seed: u64, size: usize) -> AlphaInstance {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = lambda::gen_closed(&mut rng, size);
    let renamed = rename_binders(&t, &mut 0);
    let left_tree = lambda::to_tree(&t);
    let right_tree = lambda::to_tree(&renamed);
    AlphaInstance {
        left_db: convert::to_debruijn(&left_tree),
        right_db: convert::to_debruijn(&right_tree),
        left_hoas: lambda::encode(&t).expect("closed"),
        right_hoas: lambda::encode(&renamed).expect("closed"),
        left_tree,
        right_tree,
    }
}

fn rename_binders(t: &LTerm, n: &mut u32) -> LTerm {
    match t {
        LTerm::Var(_) => t.clone(),
        LTerm::Lam(x, b) => {
            let fresh = format!("r{n}");
            *n += 1;
            let renamed = lambda::subst_native(b, x, &LTerm::var(fresh.clone()));
            LTerm::lam(fresh, rename_binders(&renamed, n))
        }
        LTerm::App(f, a) => LTerm::app(rename_binders(f, n), rename_binders(a, n)),
    }
}

/// E3 — a batch of random formulas at a given generator depth.
pub fn formulas(seed: u64, depth: u32, count: usize) -> (Vocabulary, Vec<Formula>) {
    let vocab = Vocabulary::small();
    let mut rng = SmallRng::seed_from_u64(seed);
    let fs = (0..count)
        .map(|_| hoas_langs::fol::gen_formula(&vocab, &mut rng, depth))
        .collect();
    (vocab, fs)
}

/// E4 — a batch of random imperative programs at a given depth.
pub fn imp_programs(seed: u64, depth: u32, count: usize) -> Vec<Cmd> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| hoas_langs::imp::gen_cmd(&mut rng, depth))
        .collect()
}

/// E5/E7 — closed λ-calculus encodings of a given size.
pub fn lambda_encodings(seed: u64, size: usize, count: usize) -> Vec<(LTerm, Term)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let t = lambda::gen_closed(&mut rng, size);
            let e = lambda::encode(&t).expect("closed");
            (t, e)
        })
        .collect()
}

/// E6 — a pattern matching problem of a given depth: a ground formula and
/// a hole-punched copy (pattern-fragment holes only).
pub fn pattern_problem(
    seed: u64,
    depth: u32,
) -> (
    hoas_core::sig::Signature,
    hoas_core::term::MetaEnv,
    Term,
    Term,
) {
    use hoas_core::{MVar, Term as T};
    use hoas_testkit::rng::Rng;
    let vocab = Vocabulary::small();
    let sig = vocab.signature();
    let mut rng = SmallRng::seed_from_u64(seed);
    let f = hoas_langs::fol::gen_formula(&vocab, &mut rng, depth);
    let target = hoas_langs::fol::encode(&f).expect("closed");
    let mut menv = hoas_core::term::MetaEnv::new();
    let mut next = 0u32;
    fn punch(
        t: &Term,
        rng: &mut SmallRng,
        menv: &mut hoas_core::term::MetaEnv,
        next: &mut u32,
        root: bool,
    ) -> Term {
        use hoas_testkit::rng::Rng as _;
        // Never punch the root: a hole there matches *anything*, which
        // trivializes the problem and breaks miss-target construction.
        if !root && rng.gen_bool(0.2) {
            let m = MVar::new(*next, format!("H{next}"));
            *next += 1;
            menv.insert(m.clone(), Ty::base("o"));
            return T::Meta(m);
        }
        let (head, args) = t.spine();
        match head {
            T::Const(c) if matches!(c.as_str(), "and" | "or" | "imp" | "not") => T::apps(
                head.clone(),
                args.iter()
                    .map(|a| punch(a, rng, menv, next, false))
                    .collect::<Vec<_>>(),
            ),
            _ => t.clone(),
        }
    }
    let _unused: bool = rng.gen_bool(0.5); // decorrelate from formula bits
    let pattern = punch(&target, &mut rng, &mut menv, &mut next, true);
    (sig, menv, pattern, target)
}

/// E6 — a non-pattern Huet problem with `depth + 1` occurrences of the
/// constant `a`: `?F a ≐ p (g a (g a (… a)))`. Each occurrence can be
/// abstracted or kept, so the number of matching solutions grows as
/// `2^(depth+1)` — the classic exponential blow-up of higher-order
/// matching outside the pattern fragment.
pub fn huet_problem(
    depth: u32,
) -> (
    hoas_core::sig::Signature,
    hoas_core::term::MetaEnv,
    Term,
    Term,
) {
    let vocab = Vocabulary::small();
    let sig = vocab.signature();
    let parsed = hoas_core::parse::parse_term(&sig, "?F a").expect("parses");
    let mut menv = hoas_core::term::MetaEnv::new();
    menv.insert(
        parsed.metas.get("F").expect("F").clone(),
        Ty::arrow(Ty::base("i"), Ty::base("o")),
    );
    let mut arg = Term::cnst("a");
    for _ in 0..depth {
        arg = Term::apps(Term::cnst("g"), [Term::cnst("a"), arg]);
    }
    let target = Term::app(Term::cnst("p"), arg);
    (sig, menv, parsed.term, target)
}

/// E8 — Mini-ML arithmetic programs: `(m, n)` pairs with add/mul/fact
/// workloads.
pub fn miniml_programs() -> Vec<(&'static str, Exp)> {
    vec![
        (
            "add 20 20",
            Exp::app(Exp::app(miniml::add_fn(), Exp::num(20)), Exp::num(20)),
        ),
        (
            "mul 8 8",
            Exp::app(Exp::app(miniml::mul_fn(), Exp::num(8)), Exp::num(8)),
        ),
        ("fact 5", Exp::app(miniml::fact_fn(), Exp::num(5))),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subst_instance_representations_agree() {
        let inst = subst_instance(SEED, 64);
        // Performing the substitution in each representation yields
        // α-equivalent results.
        let named = inst.body.clone();
        let named_result = lambda::subst_native(&named, "subj", &inst.arg);
        let db_result = inst.body_db.subst_free("subj", &inst.arg_db);
        assert_eq!(
            convert::to_debruijn(&lambda::to_tree(&named_result)),
            db_result
        );
        let (abs, arg) = inst.hoas();
        let hoas_result = hoas_langs::lambda::subst_hoas(&abs, &arg).unwrap();
        assert_eq!(
            lambda::encode(&named_result).unwrap(),
            hoas_result,
            "HOAS β agrees with native substitution"
        );
    }

    #[test]
    fn alpha_instance_is_alpha_equivalent_not_identical() {
        let inst = alpha_instance(SEED, 80);
        assert!(inst.left_tree.alpha_eq(&inst.right_tree));
        assert_eq!(inst.left_db, inst.right_db);
        assert_eq!(inst.left_hoas, inst.right_hoas);
    }

    #[test]
    fn pattern_problem_is_solvable() {
        let (sig, menv, pat, target) = pattern_problem(SEED, 4);
        let sol = hoas_unify::pattern::unify(&sig, &menv, &Ty::base("o"), &pat, &target).unwrap();
        assert_eq!(sol.subst.apply(&pat), target);
    }

    #[test]
    fn huet_problem_is_solvable() {
        let (sig, menv, pat, target) = huet_problem(3);
        let cfg = hoas_unify::huet::HuetConfig::default();
        let out =
            hoas_unify::huet::pre_unify_terms(&sig, &menv, &Ty::base("o"), &pat, &target, &cfg)
                .unwrap();
        assert!(!out.solutions.is_empty());
    }

    #[test]
    fn workloads_are_deterministic() {
        let a = subst_instance(SEED, 32);
        let b = subst_instance(SEED, 32);
        assert_eq!(a.body, b.body);
        let (_, f1) = formulas(SEED, 3, 2);
        let (_, f2) = formulas(SEED, 3, 2);
        assert_eq!(f1, f2);
    }
}
