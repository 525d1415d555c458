//! Warm images: persisting a live term store together with the engine's
//! cache bundle, and reloading both into a fresh process.
//!
//! A warm image is one [`Kind::Image`] codec stream whose node pool *is*
//! the store snapshot: [`save_warm_image`] registers every live node
//! from [`hoas_core::store::image::snapshot`] into the encoder pool, so
//! decoding the pool re-interns the entire store before any cache
//! section is read. The body then carries the two memo tables of an
//! [`EngineCaches`] bundle that warm replay reads — the canonical-form
//! memo and the root-step memo — each with its
//! [`NodeId`](hoas_core::NodeId) keys written as the *writer's* raw ids,
//! followed by any solver variant tables.
//!
//! [`load_warm_image`] replays the pool into the current store and
//! translates every key through the decoder's `old id → new id` remap
//! table. A key that fails to remap (its node was swept between
//! normalize and save, so it never reached the pool) drops that entry —
//! counted, never guessed. Everything else lands id-correct in the
//! target bundle, so a re-built subject re-interns onto pool nodes and
//! replays against the warm caches without traversing the subject at
//! all: the root memo hands back whole strategy steps, and the canon
//! memo hands back the subject's canonicalization. The rule-normal-form
//! cache is consulted only by traversals, so a warm replay never reads
//! it and the image does not carry it.
//!
//! The image does **not** carry the signature or rule set (persist those
//! with [`hoas_core::codec::encode_signature`] and
//! [`crate::codec::encode_rule_set`] if needed): cache soundness only
//! requires that the loading engine agrees with the writer on both,
//! which is the same contract [`EngineCaches`] already imposes on
//! cross-engine sharing.

use crate::engine::{EngineCaches, RootEntry, RootKey};
use crate::engine::{MatchPath, RewriteStep, Strategy};
use hoas_core::codec::{CodecError, Decoder, Encoder, Kind};
use hoas_core::normalize::CanonExport;
use hoas_core::store;
use hoas_core::{Sym, Term, TermRef, Ty};

/// One solver variant-table entry in engine-neutral form, for carrying
/// `hoas_lp` answer tables inside a warm image without a crate
/// dependency in either direction. The caller converts to and from
/// `hoas_lp::SolveTables` (via its `entries()` and `absorb` API); the
/// image layer only needs terms, types, and the completion flag.
///
/// The canonical call and its answers are ordinary terms, so they ride
/// the image's node pool: on load they re-intern onto pool nodes and
/// the table key (the call's content-addressed [`TermRef`]) is stable
/// across processes.
#[derive(Clone, Debug)]
pub struct SolverTableEntry {
    /// The tabled predicate.
    pub pred: Sym,
    /// The canonical call atom (metavariables `0..k` in
    /// first-occurrence order).
    pub call: Term,
    /// Types of the canonical call's metavariables `0..k`.
    pub call_tys: Vec<Ty>,
    /// Stored answers: each an instance of the call atom plus the types
    /// of its residual metavariables `0..k`.
    pub answers: Vec<(Term, Vec<Ty>)>,
    /// Whether the entry's answer set reached its least fixpoint
    /// (replayable without re-running the generator).
    pub complete: bool,
}

/// What a warm image contained and what a load did with it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ImageStats {
    /// Total image size in bytes.
    pub bytes: u64,
    /// Nodes in the store-snapshot pool.
    pub pool_nodes: u64,
    /// Pool nodes whose id changed between writer and loader.
    pub remapped_ids: u64,
    /// Canonical-form memo entries carried by the image.
    pub canon_entries: u64,
    /// Root-step memo entries carried by the image.
    pub root_memo_entries: u64,
    /// Solver variant-table entries carried by the image.
    pub solver_table_entries: u64,
    /// Solver answers carried across all variant-table entries.
    pub solver_answers: u64,
    /// Cache entries whose keys remapped and were installed.
    pub entries_reloaded: u64,
    /// Cache entries dropped because a key failed to remap.
    pub entries_dropped: u64,
}

/// Serializes the current term store and `caches` into one warm image.
///
/// Call this while the terms you intend to replay against are still
/// alive (or at least un-swept): cache keys whose nodes are missing
/// from the store at save time cannot be remapped on load and are
/// dropped there.
#[must_use]
pub fn save_warm_image(caches: &EngineCaches) -> Vec<u8> {
    save_warm_image_with_tables(caches, &[])
}

/// [`save_warm_image`], additionally carrying solver variant tables.
///
/// Table entries are written sorted by the canonical call's content
/// hash, so the image bytes are deterministic regardless of the hash
/// map iteration order the caller exported them in.
#[must_use]
pub fn save_warm_image_with_tables(caches: &EngineCaches, tables: &[SolverTableEntry]) -> Vec<u8> {
    let mut enc = Encoder::new(Kind::Image);

    // The pool is the store: registering the snapshot (id order, so
    // children precede parents) makes pool decode rebuild every live
    // α-class before the cache sections reference one.
    for t in store::image::snapshot() {
        enc.register(&t);
    }

    // Canonical-form memo.
    let canon = caches.canon.export();
    enc.put_u64(canon.len() as u64);
    for e in &canon {
        enc.put_u64(e.key.get());
        enc.put_ty(&e.ty);
        put_tys(&mut enc, &e.free_tys);
        enc.put_term_ref(&e.result);
    }

    // Root-step memo, sorted by key tuple.
    {
        let map = caches.root_memo.borrow();
        let mut keys: Vec<RootKey> = map.keys().copied().collect();
        keys.sort_unstable();
        enc.put_u64(keys.len() as u64);
        for key in keys {
            let bucket = &map[&key];
            enc.put_u8(key.0);
            enc.put_u64(key.1);
            enc.put_u64(key.2);
            enc.put_u64(bucket.len() as u64);
            for e in bucket {
                enc.put_ty(&e.ty);
                match &e.hint {
                    Some(h) => {
                        enc.put_bool(true);
                        enc.put_sym(h);
                    }
                    None => enc.put_bool(false),
                }
                enc.put_u8(strategy_tag(e.strategy));
                match &e.outcome {
                    Some((t, step)) => {
                        enc.put_bool(true);
                        enc.put_term(t);
                        enc.put_str(&step.rule);
                        enc.put_u64(step.path.len() as u64);
                        for p in &step.path {
                            enc.put_u32(*p);
                        }
                        enc.put_u8(via_tag(step.via));
                    }
                    None => enc.put_bool(false),
                }
            }
        }
    }

    // Solver variant tables, sorted by the canonical call's content
    // hash (stable across processes, unlike raw node ids).
    {
        let mut sorted: Vec<&SolverTableEntry> = tables.iter().collect();
        sorted.sort_by_key(|e| TermRef::new(e.call.clone()).content_hash());
        enc.put_u64(sorted.len() as u64);
        for e in sorted {
            enc.put_sym(&e.pred);
            enc.put_term(&e.call);
            put_tys(&mut enc, &e.call_tys);
            enc.put_bool(e.complete);
            enc.put_u64(e.answers.len() as u64);
            for (t, tys) in &e.answers {
                enc.put_term(t);
                put_tys(&mut enc, tys);
            }
        }
    }

    enc.finish()
}

/// Loads a warm image into the current term store and `caches`.
///
/// The pool is re-interned first (that *is* the store reload); every
/// cache entry is then installed under its remapped key, or counted as
/// dropped when the key's node did not survive to the image. The
/// returned [`ImageStats`] describe this load.
///
/// # Errors
///
/// Any [`CodecError`]: a corrupt, truncated, bit-flipped,
/// wrong-version, or wrong-kind image is rejected without touching
/// `caches` beyond entries already absorbed before the error.
pub fn load_warm_image(bytes: &[u8], caches: &EngineCaches) -> Result<ImageStats, CodecError> {
    load_warm_image_with_tables(bytes, caches).map(|(stats, _)| stats)
}

/// [`load_warm_image`], additionally returning the solver variant
/// tables the image carried (empty for images saved without them). The
/// caller re-imports them via `hoas_lp::SolveTables::absorb`.
///
/// # Errors
///
/// Any [`CodecError`], as for [`load_warm_image`].
pub fn load_warm_image_with_tables(
    bytes: &[u8],
    caches: &EngineCaches,
) -> Result<(ImageStats, Vec<SolverTableEntry>), CodecError> {
    let mut dec = Decoder::new(bytes, Kind::Image)?;
    let mut stats = ImageStats {
        bytes: bytes.len() as u64,
        pool_nodes: dec.pool_len(),
        ..ImageStats::default()
    };

    // Canonical-form memo.
    let n_canon = dec.get_u64()?;
    for _ in 0..n_canon {
        let old = dec.get_u64()?;
        let ty = dec.get_ty()?;
        let free_tys = get_tys(&mut dec)?;
        let result = dec.get_term()?;
        stats.canon_entries += 1;
        match dec.remap_id(old) {
            Some(key) => {
                caches.canon.absorb(CanonExport {
                    key,
                    ty,
                    free_tys,
                    result,
                });
                stats.entries_reloaded += 1;
            }
            None => stats.entries_dropped += 1,
        }
    }

    // Root-step memo.
    let n_roots = dec.get_u64()?;
    for _ in 0..n_roots {
        let tag = dec.get_u8()?;
        let old_a = dec.get_u64()?;
        let old_b = dec.get_u64()?;
        let n_entries = dec.get_u64()?;
        let mut bucket = Vec::new();
        for _ in 0..n_entries {
            let ty = dec.get_ty()?;
            let hint = if dec.get_bool()? {
                Some(dec.get_sym()?)
            } else {
                None
            };
            let strategy = strategy_from_tag(dec.get_u8()?)?;
            let outcome = if dec.get_bool()? {
                let t = dec.get_term()?.into_term();
                let rule = dec.get_str()?;
                let n_path = dec.get_u64()?;
                let mut path = Vec::new();
                for _ in 0..n_path {
                    path.push(dec.get_u32()?);
                }
                let via = via_from_tag(dec.get_u8()?)?;
                Some((t, RewriteStep { rule, path, via }))
            } else {
                None
            };
            bucket.push(RootEntry {
                ty,
                hint,
                strategy,
                outcome,
            });
        }
        stats.root_memo_entries += n_entries;
        // The second child slot uses `0` as "no child"; only real ids
        // go through the remap table.
        let new_a = dec.remap_id(old_a);
        let new_b = if old_b == 0 {
            Some(0)
        } else {
            dec.remap_id(old_b).map(hoas_core::NodeId::get)
        };
        match (new_a, new_b) {
            (Some(a), Some(b)) => {
                stats.entries_reloaded += n_entries;
                absorb_root_memo(caches, (tag, a.get(), b), bucket);
            }
            _ => stats.entries_dropped += n_entries,
        }
    }

    // Solver variant tables. Answer terms decode through the pool like
    // any other term, so no per-entry remap can fail here: the entry is
    // either decoded whole or the image is rejected.
    let mut tables = Vec::new();
    let n_tables = dec.get_u64()?;
    for _ in 0..n_tables {
        let pred = dec.get_sym()?;
        let call = dec.get_term()?.into_term();
        let call_tys = get_tys(&mut dec)?;
        let complete = dec.get_bool()?;
        let n_answers = dec.get_u64()?;
        let mut answers = Vec::new();
        for _ in 0..n_answers {
            let t = dec.get_term()?.into_term();
            let tys = get_tys(&mut dec)?;
            answers.push((t, tys));
        }
        stats.solver_table_entries += 1;
        stats.solver_answers += n_answers;
        stats.entries_reloaded += 1;
        tables.push(SolverTableEntry {
            pred,
            call,
            call_tys,
            answers,
            complete,
        });
    }

    stats.remapped_ids = dec.remapped_ids();
    dec.finish()?;
    Ok((stats, tables))
}

/// Decodes a warm image into a throwaway cache bundle (the pool still
/// re-interns into the current store), returning what it contained.
/// Full validation — checksum, digest, semantic decode — without
/// touching live caches.
///
/// # Errors
///
/// Any [`CodecError`], as for [`load_warm_image`].
pub fn inspect_warm_image(bytes: &[u8]) -> Result<ImageStats, CodecError> {
    load_warm_image(bytes, &EngineCaches::new())
}

/// Installs one reloaded root-memo bucket, deduplicating against (and
/// respecting the cap discipline of) whatever the live table holds.
fn absorb_root_memo(caches: &EngineCaches, key: RootKey, entries: Vec<RootEntry>) {
    let mut map = caches.root_memo.borrow_mut();
    // The wholesale-drop cap discipline of the engine's own inserts.
    if map.len() >= crate::engine::ROOT_MEMO_CAP {
        map.clear();
    }
    let bucket = map.entry(key).or_default();
    for e in entries {
        if !bucket
            .iter()
            .any(|x| x.ty == e.ty && x.hint == e.hint && x.strategy == e.strategy)
        {
            bucket.push(e);
        }
    }
}

fn put_tys(enc: &mut Encoder, tys: &[Ty]) {
    enc.put_u64(tys.len() as u64);
    for ty in tys {
        enc.put_ty(ty);
    }
}

fn get_tys(dec: &mut Decoder<'_>) -> Result<Vec<Ty>, CodecError> {
    let n = dec.get_u64()?;
    let mut tys = Vec::new();
    for _ in 0..n {
        tys.push(dec.get_ty()?);
    }
    Ok(tys)
}

fn strategy_tag(s: Strategy) -> u8 {
    match s {
        Strategy::LeftmostOutermost => 0,
        Strategy::LeftmostInnermost => 1,
    }
}

fn strategy_from_tag(tag: u8) -> Result<Strategy, CodecError> {
    match tag {
        0 => Ok(Strategy::LeftmostOutermost),
        1 => Ok(Strategy::LeftmostInnermost),
        _ => Err(CodecError::Corrupt("unknown strategy tag")),
    }
}

fn via_tag(v: MatchPath) -> u8 {
    match v {
        MatchPath::Pattern => 0,
        MatchPath::General => 1,
        MatchPath::Native => 2,
    }
}

fn via_from_tag(tag: u8) -> Result<MatchPath, CodecError> {
    match tag {
        0 => Ok(MatchPath::Pattern),
        1 => Ok(MatchPath::General),
        2 => Ok(MatchPath::Native),
        _ => Err(CodecError::Corrupt("unknown match-path tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineCaches, EngineConfig};
    use crate::rulesets::fol_prenex;
    use hoas_core::prelude::*;

    fn workload(sig: &Signature) -> Vec<Term> {
        [
            r"and (forall (\x. p x)) (q c0)",
            r"not (and (exists (\x. p x)) (q c0))",
            r"imp (forall (\x. p x)) (exists (\y. q y))",
        ]
        .iter()
        .map(|s| parse_term(sig, s).expect("workload parses").term)
        .collect()
    }

    fn fol_sig() -> Signature {
        Signature::parse(
            "type o. type i.
             const and : o -> o -> o. const or : o -> o -> o.
             const imp : o -> o -> o. const not : o -> o.
             const forall : (i -> o) -> o. const exists : (i -> o) -> o.
             const p : i -> o. const q : i -> o. const c0 : i.",
        )
        .expect("signature parses")
    }

    #[test]
    fn warm_image_round_trips_and_replays_without_misses() {
        let o = Ty::Base(Sym::from("o"));

        // Terms (rule sides included) carry store-specific node ids, so
        // each isolated store builds its own signature, rules, and
        // subjects; cold results cross over as strings only.
        let (image, cold_results) = StoreHandle::isolated().enter(|| {
            let sig = fol_sig();
            let rules = fol_prenex::rules(&sig).expect("rules build");
            let caches = EngineCaches::new();
            let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches.clone());
            let subjects = workload(&sig);
            let results: Vec<String> = subjects
                .iter()
                .map(|t| {
                    engine
                        .normalize(&o, t)
                        .expect("normalizes")
                        .term
                        .to_string()
                })
                .collect();
            // Subjects stay alive until after the save so their cache
            // keys are still in the store.
            let image = save_warm_image(&caches);
            drop(subjects);
            (image, results)
        });

        StoreHandle::isolated().enter(|| {
            let caches = EngineCaches::new();
            let stats = load_warm_image(&image, &caches).expect("image loads");
            assert!(stats.bytes > 0 && stats.pool_nodes > 0);
            assert!(stats.canon_entries > 0, "canon section persisted");
            assert!(stats.root_memo_entries > 0, "root memo persisted");
            assert!(stats.entries_reloaded > 0);

            let sig = fol_sig();
            let rules = fol_prenex::rules(&sig).expect("rules build");
            let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches);
            for (subject, cold) in workload(&sig).iter().zip(&cold_results) {
                let warm = engine.normalize(&o, subject).expect("normalizes");
                assert_eq!(&warm.term.to_string(), cold, "warm replay matches cold");
            }
            let es = engine.stats();
            assert_eq!(es.cache_lookups, 0, "warm replay reads no rule-NF entry");
            assert!(es.memo_hits > 0, "root memo replays whole steps");
        });
    }

    #[test]
    fn solver_tables_ride_the_image() {
        let (image, call_str) = StoreHandle::isolated().enter(|| {
            let sig = fol_sig();
            let call = parse_term(&sig, "p c0").expect("call parses").term;
            let ans = parse_term(&sig, "q c0").expect("answer parses").term;
            let entry = SolverTableEntry {
                pred: Sym::from("p"),
                call: call.clone(),
                call_tys: vec![],
                answers: vec![(ans, vec![])],
                complete: true,
            };
            let image = save_warm_image_with_tables(&EngineCaches::new(), &[entry]);
            (image, call.to_string())
        });

        StoreHandle::isolated().enter(|| {
            let (stats, tables) =
                load_warm_image_with_tables(&image, &EngineCaches::new()).expect("image loads");
            assert_eq!(stats.solver_table_entries, 1);
            assert_eq!(stats.solver_answers, 1);
            assert_eq!(tables.len(), 1);
            assert_eq!(tables[0].pred.as_str(), "p");
            assert_eq!(tables[0].call.to_string(), call_str);
            assert!(tables[0].complete);
            assert_eq!(tables[0].answers.len(), 1);
        });

        // A plain save carries an empty table section, and a plain load
        // of a table-bearing image just drops the tables.
        StoreHandle::isolated().enter(|| {
            let plain = save_warm_image(&EngineCaches::new());
            let (stats, tables) =
                load_warm_image_with_tables(&plain, &EngineCaches::new()).expect("loads");
            assert_eq!(stats.solver_table_entries, 0);
            assert!(tables.is_empty());
            let stats = load_warm_image(&image, &EngineCaches::new()).expect("loads");
            assert_eq!(stats.solver_table_entries, 1);
        });
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let o = Ty::Base(Sym::from("o"));
        let image = StoreHandle::isolated().enter(|| {
            let sig = fol_sig();
            let rules = fol_prenex::rules(&sig).expect("rules build");
            let caches = EngineCaches::new();
            let engine = Engine::with_caches(&sig, &rules, EngineConfig::default(), caches.clone());
            let subjects = workload(&sig);
            for t in &subjects {
                engine.normalize(&o, t).expect("normalizes");
            }
            save_warm_image(&caches)
        });

        StoreHandle::isolated().enter(|| {
            assert!(load_warm_image(&image[..image.len() - 1], &EngineCaches::new()).is_err());
            let mut flipped = image.clone();
            let mid = flipped.len() / 2;
            flipped[mid] ^= 0x40;
            assert!(load_warm_image(&flipped, &EngineCaches::new()).is_err());
        });
    }
}
