//! Reference oracles, one per job kind, each independent of the code
//! under test: finite-model semantics and shape checks for FOL, the
//! `imp` interpreter, the Mini-ML environment machine, Hindley–Milner
//! inference for typing, and named-AST normalization for evaluation.

use crate::gen::Input;
use crate::system::{Decoded, LpOut, RewriteOut};
use hoas_core::Term;
use hoas_langs::fol::{Formula, Model, Vocabulary};
use hoas_langs::lambda::{self, LTerm};
use hoas_langs::miniml::{self, Exp};
use hoas_langs::miniml_types::{self, MlTy};
use hoas_langs::{imp, LangError};
use hoas_testkit::rng::SmallRng;
use std::collections::HashMap;

/// Models each FOL answer is evaluated in.
const MODELS: usize = 3;
/// Loop-iteration fuel for the `imp` interpreter.
const IMP_FUEL: u64 = 10_000;
/// Fuel for the Mini-ML environment machine.
const ML_FUEL: u64 = 10_000_000;
/// β-step fuel for named-AST normalization.
const NF_FUEL: u64 = 200_000;

pub struct Oracle {
    vocab: Vocabulary,
    rng: SmallRng,
    /// `imp` jobs whose input and answer both ran out of fuel: the
    /// interpreter keeps no trace of a run that diverges, so these jobs
    /// pass without their output being compared.
    pub imp_unchecked: u64,
}

impl Oracle {
    pub fn new(seed: u64) -> Oracle {
        Oracle {
            vocab: Vocabulary::small(),
            rng: SmallRng::seed_from_u64(seed ^ 0x6f72_6163_6c65),
            imp_unchecked: 0,
        }
    }

    pub fn check_rewrite(&mut self, input: &Input, out: &RewriteOut) -> Result<(), String> {
        if out.printed.is_empty() {
            return Err("empty printed answer".into());
        }
        match (input, &out.decoded) {
            (Input::Prenex(f), Decoded::Formula(g)) => {
                if !g.is_prenex() {
                    return Err(format!("not prenex: {g}"));
                }
                self.same_truth(f, g)
            }
            (Input::Cnf(f), Decoded::Formula(g)) => {
                if !g.is_prenex() || !cnf_matrix(strip_prefix(g)) {
                    return Err(format!("not prenex CNF: {g}"));
                }
                self.same_truth(f, g)
            }
            // The generator can emit loops that never end; the optimized
            // program must then diverge too.
            (Input::Imp(c), Decoded::Cmd(d)) => {
                match (imp::run(c, IMP_FUEL), imp::run(d, IMP_FUEL)) {
                    (Ok(want), Ok(got)) if want == got => Ok(()),
                    (Err(LangError::OutOfFuel), Err(LangError::OutOfFuel)) => {
                        self.imp_unchecked += 1;
                        Ok(())
                    }
                    (want, got) => Err(format!("optimized run {got:?} != reference run {want:?}")),
                }
            }
            (Input::Ml(e), Decoded::Ml(simplified, value)) => {
                let want = miniml::eval_env(e, &mut ML_FUEL.clone())
                    .map_err(|e| format!("reference eval: {e}"))?
                    .as_num()
                    .ok_or("reference value is not a numeral")?;
                let simplified_value = miniml::eval_env(simplified, &mut ML_FUEL.clone())
                    .map_err(|e| format!("simplified eval: {e}"))?
                    .as_num();
                if value.as_num() != Some(want) || simplified_value != Some(want) {
                    return Err(format!(
                        "value {value} / simplified {simplified_value:?} != {want}"
                    ));
                }
                Ok(())
            }
            _ => Err("answer of the wrong kind".into()),
        }
    }

    /// Both formulas agree in several seeded finite models.
    fn same_truth(&mut self, f: &Formula, g: &Formula) -> Result<(), String> {
        for _ in 0..MODELS {
            let m = Model::random(&self.vocab, 2, &mut self.rng);
            let a = m.eval(f, &mut HashMap::new()).map_err(|e| e.to_string())?;
            let b = m.eval(g, &mut HashMap::new()).map_err(|e| e.to_string())?;
            if a != b {
                return Err(format!("semantics changed: {f} vs {g}"));
            }
        }
        Ok(())
    }

    pub fn check_lp(&mut self, input: &Input, out: &LpOut) -> Result<(), String> {
        if out.printed.is_empty() {
            return Err("empty printed answer".into());
        }
        if out.outcome.cut.is_some() || out.outcome.floundered {
            return Err(format!(
                "inconclusive search: cut {:?}, floundered {}",
                out.outcome.cut, out.outcome.floundered
            ));
        }
        match input {
            Input::Of(m) => same_principal_type(m, out),
            Input::Eval(value) => {
                let v = out.value.as_ref().ok_or("no value")?;
                let nf = lambda::normalize_native(v, NF_FUEL).map_err(|e| e.to_string())?;
                let want = lambda::church(*value as u32);
                if !nf.alpha_eq(&want) {
                    return Err(format!("value normalizes to {nf}, want Church {value}"));
                }
                Ok(())
            }
            Input::Pres(e) => {
                same_principal_type(e, out)?;
                if out.ty.is_none() {
                    return Ok(());
                }
                // Evaluation preserved the meaning: value and program share
                // a normal form.
                let v = out.value.as_ref().ok_or("typed but no value")?;
                let nv = lambda::normalize_native(v, NF_FUEL).map_err(|e| e.to_string())?;
                let ne = lambda::normalize_native(e, NF_FUEL).map_err(|e| e.to_string())?;
                if !nv.alpha_eq(&ne) {
                    return Err(format!("value {v} is not β-equal to the program"));
                }
                Ok(())
            }
            _ => Err("answer of the wrong kind".into()),
        }
    }
}

/// The solver answers iff Hindley–Milner types the term, with the same
/// principal type up to renaming.
fn same_principal_type(m: &LTerm, out: &LpOut) -> Result<(), String> {
    match (miniml_types::infer(&to_exp(m)), &out.ty) {
        (Ok(want), Some(got)) => {
            let got = stlc_ty(got)?;
            if renumber(&got) != renumber(&want) {
                return Err(format!("type {got} != principal {want}"));
            }
            Ok(())
        }
        (Err(_), None) => Ok(()),
        (Ok(want), None) => Err(format!("typable at {want} but no answer")),
        (Err(e), Some(got)) => Err(format!("untypable ({e}) but answered {got}")),
    }
}

fn to_exp(t: &LTerm) -> Exp {
    match t {
        LTerm::Var(x) => Exp::var(x.clone()),
        LTerm::Lam(x, b) => Exp::lam(x.clone(), to_exp(b)),
        LTerm::App(f, a) => Exp::app(to_exp(f), to_exp(a)),
    }
}

/// Reads a λProlog `tp` answer (`arr`, `base`, unsolved metavariables).
fn stlc_ty(t: &Term) -> Result<MlTy, String> {
    match t.spine() {
        (Term::Meta(m), args) if args.is_empty() => Ok(MlTy::Var(m.id())),
        (Term::Const(c), args) if c.as_str() == "base" && args.is_empty() => Ok(MlTy::Nat),
        (Term::Const(c), args) if c.as_str() == "arr" && args.len() == 2 => {
            Ok(MlTy::arrow(stlc_ty(args[0])?, stlc_ty(args[1])?))
        }
        _ => Err(format!("not a type: {t}")),
    }
}

/// Numbers type variables by first occurrence, so equality is equality
/// up to renaming.
fn renumber(t: &MlTy) -> MlTy {
    fn go(t: &MlTy, seen: &mut Vec<u32>) -> MlTy {
        match t {
            MlTy::Nat => MlTy::Nat,
            MlTy::Var(v) => {
                let i = seen.iter().position(|w| w == v).unwrap_or_else(|| {
                    seen.push(*v);
                    seen.len() - 1
                });
                MlTy::Var(i as u32)
            }
            MlTy::Arrow(a, b) => {
                let a = go(a, seen);
                MlTy::arrow(a, go(b, seen))
            }
        }
    }
    go(t, &mut Vec::new())
}

fn strip_prefix(f: &Formula) -> &Formula {
    match f {
        Formula::Forall(_, b) | Formula::Exists(_, b) => strip_prefix(b),
        _ => f,
    }
}

/// A conjunction of disjunctions of literals.
fn cnf_matrix(f: &Formula) -> bool {
    fn literal(f: &Formula) -> bool {
        match f {
            Formula::Pred(..) => true,
            Formula::Not(a) => matches!(a.as_ref(), Formula::Pred(..)),
            _ => false,
        }
    }
    fn clause(f: &Formula) -> bool {
        match f {
            Formula::Or(a, b) => clause(a) && clause(b),
            _ => literal(f),
        }
    }
    match f {
        Formula::And(a, b) => cnf_matrix(a) && cnf_matrix(b),
        _ => clause(f),
    }
}
