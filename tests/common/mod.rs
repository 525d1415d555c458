//! The tabled fold workload and the conversions between live solver
//! tables and the warm image's neutral entry form, shared by the
//! suites that round-trip tables through an image.

use hoas::lp::{Clause, EntryState, Program, SolveTables, TableAnswer};
use hoas::rewrite::image::SolverTableEntry;
use hoas_core::sig::Signature;

/// The shared-subtree `opt` workload: tabling collapses its
/// exponentially many identical subgoals to one generator each.
pub fn fold_program() -> Program {
    let sig = Signature::parse(
        "type e. type o.
         const zero : e. const one : e.
         const plus : e -> e -> e.
         const opt : e -> e -> o.",
    )
    .unwrap();
    let mut prog = Program::new(sig);
    prog.push(Clause::parse(prog.sig(), &[], "opt zero zero", &[]).unwrap());
    prog.push(Clause::parse(prog.sig(), &[], "opt one one", &[]).unwrap());
    prog.push(
        Clause::parse(
            prog.sig(),
            &[("X", "e"), ("Y", "e"), ("A", "e"), ("B", "e")],
            "opt (plus ?X ?Y) (plus ?A ?B)",
            &["opt ?X ?A", "opt ?Y ?B"],
        )
        .unwrap(),
    );
    prog
}

/// A perfectly shared `plus` tree of the given depth over `one`.
pub fn shared_tree(depth: usize) -> String {
    let mut tree = String::from("one");
    for _ in 0..depth {
        tree = format!("(plus {tree} {tree})");
    }
    tree
}

/// `SolveTables` → the image codec's neutral entry form.
pub fn export_tables(tables: &SolveTables) -> Vec<SolverTableEntry> {
    tables
        .entries()
        .map(|(_, e)| SolverTableEntry {
            pred: e.pred.clone(),
            call: e.call.clone(),
            call_tys: e.call_tys.clone(),
            answers: e
                .answers
                .iter()
                .map(|a| (a.term.clone(), a.meta_tys.clone()))
                .collect(),
            complete: e.state == EntryState::Complete,
        })
        .collect()
}

/// The image codec's neutral entry form → `SolveTables` pinned to `prog`.
pub fn absorb_tables(prog: &Program, entries: Vec<SolverTableEntry>) -> SolveTables {
    let mut tables = SolveTables::for_program(prog);
    for e in entries {
        let answers = e
            .answers
            .into_iter()
            .map(|(term, meta_tys)| TableAnswer { term, meta_tys })
            .collect();
        tables.absorb(e.pred, e.call, e.call_tys, answers, e.complete);
    }
    tables
}
