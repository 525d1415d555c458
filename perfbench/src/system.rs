//! The system under test, as a user's process holds it: signatures, rule
//! sets, engines with their caches, the λProlog program with its
//! certificate and answer tables — and one function per job that drives
//! the public layer entry points from source text to printed answer.

use crate::clock::thread_cpu_ns;
use crate::gen::Input;
use crate::trace::Tracer;
use hoas_analyze::{modes, termination};
use hoas_core::ctx::Ctx;
use hoas_core::parse::{parse_term, parse_term_with, MetaTable};
use hoas_core::print::term_to_string;
use hoas_core::sig::Signature;
use hoas_core::term::MetaEnv;
use hoas_core::{typeck, Term, Ty};
use hoas_langs::fol::{self, Formula};
use hoas_langs::imp::{self, Cmd};
use hoas_langs::lambda::{self, LTerm};
use hoas_langs::miniml::{self, Exp};
use hoas_lp::solve::{query_menv, solve_with, Outcome, SolveConfig};
use hoas_lp::{examples, Goal, Program, ProgramCert, SolveTables, TableMode};
use hoas_rewrite::image::{load_warm_image_with_tables, ImageStats};
use hoas_rewrite::rulesets::{fol_cnf, fol_prenex, imp_opt, miniml_opt};
use hoas_rewrite::{Engine, EngineCaches, EngineConfig, EngineStats, RuleSet, TerminationCert};

/// Fuel for `eval_hoas` on the Mini-ML jobs (β/δ steps).
const ML_FUEL: u64 = 10_000_000;

/// Signature source texts, rendered once from the object-language
/// crates; every set-up parses them again.
pub struct SigTexts {
    fol: String,
    imp: String,
    ml: String,
}

impl SigTexts {
    pub fn new() -> SigTexts {
        SigTexts {
            fol: fol::Vocabulary::small().signature().to_string(),
            imp: imp::signature().to_string(),
            ml: miniml::signature().to_string(),
        }
    }
}

/// Index of a rewrite job kind into the per-kind engine array.
pub fn rewrite_slot(input: &Input) -> usize {
    match input {
        Input::Prenex(_) => 0,
        Input::Cnf(_) => 1,
        Input::Imp(_) => 2,
        Input::Ml(_) => 3,
        _ => unreachable!("not a rewrite job"),
    }
}

/// Signatures, rule sets and their termination certificates.
pub struct RewriteSys {
    fol: Signature,
    imp: Signature,
    ml: Signature,
    /// prenex, CNF, imp_opt, miniml_opt.
    rules: [RuleSet; 4],
    certs: [Option<TerminationCert>; 4],
}

impl RewriteSys {
    /// Builds everything from source text; `cert_ns` receives the time
    /// spent minting certificates.
    pub fn build(texts: &SigTexts, cert_ns: &mut u64) -> RewriteSys {
        let fol = Signature::parse(&texts.fol).expect("FOL signature parses");
        let imp = Signature::parse(&texts.imp).expect("imp signature parses");
        let ml = Signature::parse(&texts.ml).expect("Mini-ML signature parses");
        let rules = [
            fol_prenex::rules(&fol).expect("prenex rules"),
            fol_cnf::rules(&fol).expect("CNF rules"),
            imp_opt::rules(&imp).expect("imp_opt rules"),
            miniml_opt::rules(&ml).expect("miniml_opt rules"),
        ];
        let t = thread_cpu_ns();
        let certs = [0, 1, 2, 3].map(|i| termination::analyze_ruleset(&rules[i]).cert);
        *cert_ns += thread_cpu_ns() - t;
        RewriteSys {
            fol,
            imp,
            ml,
            rules,
            certs,
        }
    }

    fn sig(&self, slot: usize) -> &Signature {
        match slot {
            0 | 1 => &self.fol,
            2 => &self.imp,
            _ => &self.ml,
        }
    }

    /// One engine per rule set, over the given caches, with the
    /// certificate attached where the analysis issued one.
    pub fn engines(&self, caches: [EngineCaches; 4]) -> Vec<Engine<'_>> {
        caches
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let mut e =
                    Engine::with_caches(self.sig(i), &self.rules[i], EngineConfig::default(), c);
                if let Some(cert) = &self.certs[i] {
                    e.attach_certificate(cert);
                }
                e
            })
            .collect()
    }

    /// How many of the four rule sets carry a termination certificate.
    pub fn certified(&self) -> usize {
        self.certs.iter().filter(|c| c.is_some()).count()
    }
}

/// Loads one warm image per engine into fresh caches.
pub fn load_images(images: &[Vec<u8>]) -> ([EngineCaches; 4], ImageStats) {
    let caches: [EngineCaches; 4] = Default::default();
    let mut total = ImageStats::default();
    for (bytes, c) in images.iter().zip(&caches) {
        let (s, _tables) = load_warm_image_with_tables(bytes, c).expect("warm image loads");
        total.bytes += s.bytes;
        total.entries_reloaded += s.entries_reloaded;
        total.entries_dropped += s.entries_dropped;
    }
    (caches, total)
}

/// The λProlog program (the bundled STLC checker and CBV evaluator in
/// one program), its analysis certificate and the run's answer tables.
pub struct LpSys {
    prog: Program,
    cert: ProgramCert,
    tables: SolveTables,
}

impl LpSys {
    pub fn build(cert_ns: &mut u64) -> LpSys {
        let stlc = examples::stlc_program();
        let eval = examples::eval_program();
        let mut sig = stlc.sig().clone();
        sig.merge(eval.sig())
            .expect("the two programs agree on `tm`");
        let mut prog = Program::new(sig);
        for c in stlc.clauses().iter().chain(eval.clauses()) {
            prog.push(c.clone());
        }
        let t = thread_cpu_ns();
        let cert = modes::analyze_program(&prog).cert;
        *cert_ns += thread_cpu_ns() - t;
        let tables = SolveTables::for_program(&prog);
        LpSys { prog, cert, tables }
    }
}

/// What a rewrite job hands the oracle.
pub enum Decoded {
    Formula(Formula),
    Cmd(Cmd),
    /// The simplified program and the decoded value it evaluated to.
    Ml(Exp, Exp),
}

pub struct RewriteOut {
    pub input: Term,
    pub output: Term,
    pub decoded: Decoded,
    pub printed: String,
    pub steps: usize,
    pub stats: EngineStats,
}

/// Source text → parse → typeck → normalize → decode (→ eval → decode)
/// → print.
pub fn run_rewrite(
    engines: &[Engine<'_>],
    sys: &RewriteSys,
    input: &Input,
    text: &str,
    tr: &mut Tracer,
) -> Result<RewriteOut, String> {
    let slot = rewrite_slot(input);
    let (engine, sig) = (&engines[slot], sys.sig(slot));
    let ty = match slot {
        0 | 1 => fol::o(),
        2 => imp::cmd_ty(),
        _ => miniml::exp(),
    };
    let parsed = tr
        .layer("parse", || parse_term(sig, text))
        .map_err(|e| format!("parse: {e}"))?
        .term;
    tr.layer("typeck", || typeck::check_closed(sig, &parsed, &ty))
        .map_err(|e| format!("typeck: {e}"))?;
    let res = tr
        .layer("rewrite", || engine.normalize(&ty, &parsed))
        .map_err(|e| format!("rewrite: {e}"))?;
    if !res.fixpoint {
        return Err("rewrite: step budget exhausted".into());
    }
    let (decoded, answer) = match slot {
        0 | 1 => {
            let f = tr.layer("decode", || fol::decode(&res.term));
            (
                Decoded::Formula(f.map_err(|e| format!("decode: {e}"))?),
                None,
            )
        }
        2 => {
            let c = tr.layer("decode", || imp::decode(&res.term));
            (Decoded::Cmd(c.map_err(|e| format!("decode: {e}"))?), None)
        }
        _ => {
            let prog = tr
                .layer("decode", || miniml::decode(&res.term))
                .map_err(|e| format!("decode: {e}"))?;
            let mut fuel = ML_FUEL;
            let v = tr
                .layer("eval", || miniml::eval_hoas(&res.term, &mut fuel))
                .map_err(|e| format!("eval: {e}"))?;
            let value = tr
                .layer("decode", || miniml::decode(&v))
                .map_err(|e| format!("decode: {e}"))?;
            (Decoded::Ml(prog, value), Some(v))
        }
    };
    let printed = tr.layer("print", || {
        term_to_string(answer.as_ref().unwrap_or(&res.term))
    });
    Ok(RewriteOut {
        input: parsed,
        output: res.term,
        decoded,
        printed,
        steps: res.steps,
        stats: res.stats,
    })
}

pub struct LpOut {
    pub goal_nodes: usize,
    pub outcome: Outcome,
    /// The principal type `?T`, when the query asked for one and got it.
    pub ty: Option<Term>,
    /// The decoded value `?V`, when the query asked for one and got it.
    pub value: Option<LTerm>,
    pub printed: String,
}

fn solve_config() -> SolveConfig {
    SolveConfig {
        max_depth: 4096,
        fuel: 5_000_000,
        table: TableMode::Certified,
        ..SolveConfig::default()
    }
}

/// Query text → parse → typeck → solve (certified, tabled) → decode →
/// print.
pub fn run_lp(lp: &mut LpSys, input: &Input, text: &str, tr: &mut Tracer) -> Result<LpOut, String> {
    let sig = lp.prog.sig();
    let (goal, menv, atoms) = tr
        .layer("parse", || parse_query(sig, input, text))
        .map_err(|e| format!("parse: {e}"))?;
    tr.layer("typeck", || {
        atoms
            .iter()
            .try_for_each(|a| typeck::check(sig, &menv, &Ctx::new(), a, &Ty::base("o")))
    })
    .map_err(|e| format!("typeck: {e}"))?;
    let cfg = solve_config();
    let outcome = tr
        .layer("solve", || {
            solve_with(&lp.prog, &menv, &goal, &cfg, Some(&lp.cert), &mut lp.tables)
        })
        .map_err(|e| format!("solve: {e}"))?;
    let answer = outcome.answers.first();
    let ty = answer.and_then(|a| a.get("T")).cloned();
    let value = match answer.and_then(|a| a.get("V")) {
        Some(v) => Some(
            tr.layer("decode", || lambda::decode(v))
                .map_err(|e| format!("decode: {e}"))?,
        ),
        None => None,
    };
    let printed = tr.layer("print", || {
        let mut s = String::new();
        for a in &outcome.answers {
            for (m, t) in &a.bindings {
                s.push_str(&format!("{m} = {}; ", term_to_string(t)));
            }
        }
        if outcome.answers.is_empty() {
            s.push_str("no");
        }
        s
    });
    Ok(LpOut {
        goal_nodes: atoms.iter().map(Term::size).sum(),
        outcome,
        ty,
        value,
        printed,
    })
}

type Query = (Goal, MetaEnv, Vec<Term>);

fn parse_query(sig: &Signature, input: &Input, text: &str) -> Result<Query, hoas_core::Error> {
    match input {
        Input::Of(_) => single(query_menv(sig, text, &[("T", "tp")])?),
        Input::Eval { .. } => single(query_menv(sig, text, &[("V", "tm")])?),
        _ => {
            // Three goals over shared `?T`/`?V`: parse them through one
            // metavariable table.
            let mut table = MetaTable::new();
            table.get_or_insert("T");
            table.get_or_insert("V");
            let mut atoms = Vec::new();
            for line in text.lines() {
                let parsed = parse_term_with(sig, line, table)?;
                table = parsed.metas;
                atoms.push(parsed.term);
            }
            let mut menv = MetaEnv::new();
            let t = table.get("T").expect("pre-allocated").clone();
            let v = table.get("V").expect("pre-allocated").clone();
            menv.insert(t, Ty::base("tp"));
            menv.insert(v, Ty::base("tm"));
            let goal = Goal::all_of(atoms.iter().cloned().map(Goal::Atom));
            Ok((goal, menv, atoms))
        }
    }
}

fn single((goal, menv): (Goal, MetaEnv)) -> Result<Query, hoas_core::Error> {
    let Goal::Atom(a) = &goal else {
        unreachable!("query_menv returns an atom")
    };
    let atoms = vec![a.clone()];
    Ok((goal, menv, atoms))
}
