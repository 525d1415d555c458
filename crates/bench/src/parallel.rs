//! A work-stealing batch driver: normalize many independent subjects
//! across a thread pool sharing one term store (and optionally one
//! [`EngineCaches`] bundle).
//!
//! This is the scaling harness the sharded store exists for: queries in a
//! batch are independent (one subject each, no cross-talk), so the only
//! shared state is the interner and — when a shared cache bundle is
//! passed — the engine memo tables. Each worker `enter`s the
//! coordinator's [`StoreHandle`](hoas_core::StoreHandle) and builds a *private* [`Engine`]
//! (per-engine counters stay single-threaded `Cell`s) around either a
//! fresh or the shared cache bundle.
//!
//! Scheduling is classic work stealing: subjects are dealt round-robin
//! into one deque per worker; a worker pops its own deque from the front
//! and, when empty, steals from the *back* of a sibling's. Nothing is
//! ever re-enqueued, so a full sweep that finds every deque empty means
//! the batch is drained.
//!
//! The driver is *observationally transparent*: results come back in
//! subject order and — for fresh-cache workers, or any workers sharing a
//! warm bundle — are term/steps/applied/trace-identical to a sequential
//! engine's, which `tests/parallel_engine_props.rs` property-checks
//! against all four bundled rule sets and both strategies.

use hoas_core::sig::Signature;
use hoas_core::{store, Term, Ty};
use hoas_rewrite::{Engine, EngineCaches, EngineConfig, NormalizeResult, RewriteError, RuleSet};
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

/// How a [`normalize_batch`] pool shares engine caches.
#[derive(Clone, Debug, Default)]
pub enum CacheMode {
    /// Every worker gets a fresh, private [`EngineCaches`] bundle: no
    /// cache-induced coupling between workers (the default for scaling
    /// benches — measured speedups are then pure parallelism, not one
    /// worker warming another).
    #[default]
    PerWorker,
    /// All workers share the given bundle (cloning shares the tables):
    /// work one worker proves benefits the rest, at the cost of lock
    /// traffic on the shared maps.
    Shared(EngineCaches),
}

/// Normalizes `subjects[i]` at type `ty` for every `i`, fanning the batch
/// out over `threads` workers, and returns the results in subject order.
///
/// All workers intern into the **caller's current store** (captured via
/// [`store::current`] and entered on each worker), so the batch behaves
/// as if run on the calling thread: results can be compared against the
/// caller's terms by `NodeId`, and anything the caller interned is shared
/// rather than rebuilt. `threads` is clamped to `1..=subjects.len()`
/// (a pool larger than the batch would only spawn idle workers).
///
/// # Errors
///
/// The first [`RewriteError`] any worker hits (by subject order). Workers
/// finish their in-flight subjects either way.
pub fn normalize_batch(
    sig: &Signature,
    rules: &RuleSet,
    cfg: &EngineConfig,
    ty: &Ty,
    subjects: &[Term],
    threads: usize,
    cache_mode: &CacheMode,
) -> Result<Vec<NormalizeResult>, RewriteError> {
    if subjects.is_empty() {
        return Ok(Vec::new());
    }
    let threads = threads.clamp(1, subjects.len());
    // Deal subjects round-robin: one deque per worker, locked only at the
    // ends (pop-front by the owner, pop-back by thieves).
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..subjects.len()).step_by(threads).collect()))
        .collect();
    let handle = store::current();

    let mut slots: Vec<Option<Result<NormalizeResult, RewriteError>>> = Vec::new();
    slots.resize_with(subjects.len(), || None);
    let worker_outputs: Vec<Vec<(usize, Result<NormalizeResult, RewriteError>)>> =
        std::thread::scope(|scope| {
            let joins: Vec<_> = (0..threads)
                .map(|me| {
                    let handle = handle.clone();
                    let queues = &queues;
                    let caches = match cache_mode {
                        CacheMode::PerWorker => EngineCaches::new(),
                        CacheMode::Shared(shared) => shared.clone(),
                    };
                    scope.spawn(move || {
                        handle.enter(|| {
                            let engine = Engine::with_caches(sig, rules, cfg.clone(), caches);
                            let mut out = Vec::new();
                            while let Some(i) = next_subject(queues, me) {
                                out.push((i, engine.normalize(ty, &subjects[i])));
                            }
                            out
                        })
                    })
                })
                .collect();
            joins
                .into_iter()
                .map(|j| j.join().expect("batch worker panicked"))
                .collect()
        });
    for (i, r) in worker_outputs.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every subject was dealt to exactly one worker"))
        .collect()
}

/// The next subject for worker `me`: its own deque's front, else the back
/// of the first non-empty sibling deque, else `None` (the batch is
/// drained — items are never re-enqueued, so one empty sweep is final).
fn next_subject(queues: &[Mutex<VecDeque<usize>>], me: usize) -> Option<usize> {
    let pop = |w: usize, own: bool| {
        let mut q = queues[w].lock().unwrap_or_else(PoisonError::into_inner);
        if own {
            q.pop_front()
        } else {
            q.pop_back()
        }
    };
    pop(me, true).or_else(|| (1..queues.len()).find_map(|d| pop((me + d) % queues.len(), false)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use hoas_langs::fol;
    use hoas_rewrite::rulesets::fol_prenex;

    #[test]
    fn batch_matches_sequential_on_prenex() {
        let (vocab, fs) = workloads::formulas(workloads::SEED, 4, 12);
        let sig = vocab.signature();
        let rules = fol_prenex::rules(&sig).unwrap();
        let subjects: Vec<Term> = fs.iter().map(|f| fol::encode(f).unwrap()).collect();
        let cfg = EngineConfig::default();
        let sequential = Engine::with_config(&sig, &rules, cfg.clone());
        let expected: Vec<NormalizeResult> = subjects
            .iter()
            .map(|t| sequential.normalize(&fol::o(), t).unwrap())
            .collect();
        for threads in [1, 2, 4] {
            let got = normalize_batch(
                &sig,
                &rules,
                &cfg,
                &fol::o(),
                &subjects,
                threads,
                &CacheMode::PerWorker,
            )
            .unwrap();
            assert_eq!(got.len(), expected.len());
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.term, e.term, "{threads}-thread batch diverged");
                assert_eq!(g.steps, e.steps);
                assert_eq!(g.applied, e.applied);
                assert_eq!(g.trace, e.trace);
            }
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (vocab, _) = workloads::formulas(workloads::SEED, 3, 1);
        let sig = vocab.signature();
        let rules = fol_prenex::rules(&sig).unwrap();
        let got = normalize_batch(
            &sig,
            &rules,
            &EngineConfig::default(),
            &fol::o(),
            &[],
            4,
            &CacheMode::PerWorker,
        )
        .unwrap();
        assert!(got.is_empty());
    }
}
