//! The conversions between live solver tables and the warm image's
//! neutral entry form, shared by the suites that round-trip tables
//! through an image.

use hoas::lp::{EntryState, Program, SolveTables, TableAnswer};
use hoas::rewrite::image::SolverTableEntry;

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
