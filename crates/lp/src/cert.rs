//! Program certificates: mode and tabling verdicts the solver
//! enforces.
//!
//! The static analyzer (crate `hoas-analyze`) runs a mode/groundness
//! abstract interpretation over a [`Program`] and mints a
//! [`ProgramCert`] recording, per predicate:
//!
//! * the **modes** it admits — bit vectors marking input positions;
//!   a call whose input positions are ground is guaranteed (by the
//!   analysis) to succeed only with ground output positions;
//! * whether it is **tabling-eligible** — under
//!   [`crate::table::TableMode::Certified`] the solver answers its
//!   ground-input calls from variant tables.
//!
//! Trust boundary: certificates are minted only through
//! [`ProgramCert::issue`] (`#[doc(hidden)]`, analyzer use only), carry
//! a fingerprint of the exact program they were proven for, and
//! [`crate::solve::solve_certified`] ignores a certificate whose
//! fingerprint does not match. In debug builds the solver additionally
//! runs a **dynamic mode sanitizer**: moded calls re-verify output
//! groundness at exit (a violation panics citing `HA018`). Release
//! builds trust the certificate without the check.

use crate::program::{Clause, Goal, Program};
use hoas_core::Sym;
use std::collections::HashMap;

/// One admitted mode for a predicate: `inputs[i]` is `true` when
/// argument position `i` is an input (must be ground at call for the
/// mode's guarantee to apply); the remaining positions are outputs
/// (guaranteed ground at every success).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Input-position mask, one entry per predicate argument.
    pub inputs: Vec<bool>,
}

impl Mode {
    /// Renders as the conventional `(+,-,…)` notation.
    pub fn render(&self) -> String {
        let marks: Vec<&str> = self
            .inputs
            .iter()
            .map(|&i| if i { "+" } else { "-" })
            .collect();
        format!("({})", marks.join(","))
    }
}

/// Per-predicate verdicts recorded in a certificate.
#[derive(Clone, Debug, Default)]
pub struct PredVerdict {
    /// Admitted modes (possibly empty: no consistent mode was found).
    pub modes: Vec<Mode>,
    /// Whether the predicate is **tabling-eligible**: it admits at
    /// least one mode with an input position (so calls can be keyed on
    /// ground skeletons) and no program clause extends it (or any
    /// predicate) hypothetically in a way the analysis could not
    /// account for. Under [`crate::table::TableMode::Certified`] the
    /// solver tables exactly the eligible calls whose admitted-mode
    /// input positions are ground.
    pub table: bool,
}

/// The initial value of [`Program::fingerprint64`]'s running hash.
pub(crate) const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Mixes one 64-bit word into a running fingerprint (same scheme as
/// `hoas_rewrite::cert`, duplicated to keep the crates independent).
pub(crate) fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0100_0000_01b3).rotate_left(23)
}

fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut w = [0u8; 8];
        w[..chunk.len()].copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(w));
    }
    mix(h, bytes.len() as u64)
}

fn mix_term(h: u64, t: &hoas_core::Term) -> u64 {
    let ch = hoas_core::TermRef::new(t.clone()).content_hash();
    mix(mix(h, ch as u64), (ch >> 64) as u64)
}

fn mix_goal(mut h: u64, g: &Goal) -> u64 {
    match g {
        Goal::True => mix(h, 1),
        Goal::Atom(t) => mix_term(mix(h, 2), t),
        Goal::And(a, b) => mix_goal(mix_goal(mix(h, 3), a), b),
        Goal::Impl(c, g) => mix_goal(mix_clause(mix(h, 4), c), g),
        Goal::All(x, ty, g) => {
            h = mix_bytes(mix(h, 5), x.as_str().as_bytes());
            h = mix_bytes(h, ty.to_string().as_bytes());
            mix_goal(h, g)
        }
    }
}

/// Folds one clause into [`Program::fingerprint64`]'s running hash.
pub(crate) fn mix_clause(mut h: u64, c: &Clause) -> u64 {
    h = mix(h, c.vars.len() as u64);
    for (x, ty) in &c.vars {
        h = mix_bytes(h, x.as_str().as_bytes());
        h = mix_bytes(h, ty.to_string().as_bytes());
    }
    mix_goal(mix_term(h, &c.head), &c.body)
}

/// Proof token: mode and tabling verdicts for one specific
/// program. See the module docs for the trust story.
#[derive(Clone, Debug)]
pub struct ProgramCert {
    fingerprint: u64,
    preds: HashMap<Sym, PredVerdict>,
}

impl ProgramCert {
    /// Mints a certificate. **Analyzer use only** — the verdicts must
    /// come from an actual run of the mode analysis.
    #[doc(hidden)]
    pub fn issue(prog: &Program, preds: HashMap<Sym, PredVerdict>) -> ProgramCert {
        ProgramCert {
            fingerprint: prog.fingerprint64(),
            preds,
        }
    }

    /// Whether the certificate was issued for exactly this program.
    pub fn covers(&self, prog: &Program) -> bool {
        self.fingerprint == prog.fingerprint64()
    }

    /// The verdict for a predicate, if any was recorded.
    pub fn verdict(&self, pred: &Sym) -> Option<&PredVerdict> {
        self.preds.get(pred)
    }

    /// All recorded verdicts, for reporting.
    pub fn verdicts(&self) -> impl Iterator<Item = (&Sym, &PredVerdict)> {
        self.preds.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn certificate_covers_only_the_fingerprinted_program() {
        let prog = examples::append_program();
        let cert = ProgramCert::issue(&prog, HashMap::new());
        assert!(cert.covers(&prog));

        let mut extended = prog.clone();
        extended.push(Clause {
            vars: vec![],
            head: hoas_core::Term::apps(
                hoas_core::Term::cnst("append"),
                [
                    hoas_core::Term::cnst("nil"),
                    hoas_core::Term::cnst("nil"),
                    hoas_core::Term::cnst("nil"),
                ],
            ),
            body: Goal::True,
        });
        assert!(!cert.covers(&extended));
    }

    #[test]
    fn fingerprint_is_kept_incrementally_with_stable_values() {
        // `push` folds each clause into a running hash; the result must
        // equal a fold over the whole clause list, and keep the values
        // certificates and tables were pinned to before it was
        // incremental.
        for (prog, want) in [
            (examples::append_program(), 0x8910_3590_a447_ff96),
            (examples::stlc_program(), 0x0a70_0292_167a_2e78),
            (examples::eval_program(), 0x4474_1172_c88f_5be3),
        ] {
            let folded = prog.clauses().iter().fold(FINGERPRINT_SEED, mix_clause);
            assert_eq!(
                prog.fingerprint64(),
                mix(folded, prog.clauses().len() as u64)
            );
            assert_eq!(prog.fingerprint64(), want);
        }
    }

    #[test]
    fn mode_renders_conventionally() {
        let m = Mode {
            inputs: vec![true, true, false],
        };
        assert_eq!(m.render(), "(+,+,-)");
    }
}
