//! Property tests for the binary codec (PR 7): `decode(encode(x)) = x`
//! up to `NodeId` remap, over all four object languages' encoders.
//!
//! * terms — decoding in the same store lands on the *same* node (ids
//!   equal), and the 128-bit content hash survives the round trip;
//! * signatures — declaration lists round-trip in order;
//! * rule sets — every rule's name, type, and canonical sides survive;
//! * corruption — truncated or bit-flipped streams are *rejected*,
//!   never mis-loaded, and a version bump is reported as such.

use hoas::core::codec::{
    decode_signature, decode_term, encode_signature, encode_term, CodecError, Kind, VERSION,
};
use hoas::core::prelude::*;
use hoas::langs::{fol, imp, lambda, miniml};
use hoas::rewrite::codec::{decode_rule_set, encode_rule_set};
use hoas::rewrite::rulesets::{fol_prenex, imp_opt, miniml_opt};
use hoas_testkit::prelude::*;

/// Round-trips one term and checks identity + content-hash stability:
/// decoding re-interns the skeleton, so in the writing store the result
/// must be the identical node, and the structural content hash — which
/// is store-independent — must agree bit for bit.
fn assert_term_round_trips(t: &Term) {
    let original = TermRef::new(t.clone());
    let bytes = encode_term(t);
    let decoded = decode_term(&bytes).expect("round trip decodes");
    assert_eq!(
        original.id(),
        decoded.id(),
        "decode(encode({t})) landed on a different node"
    );
    assert_eq!(
        original.content_hash(),
        decoded.content_hash(),
        "content hash of {t} changed across the round trip"
    );
}

/// Round-trips a signature and compares the declaration lists.
fn assert_signature_round_trips(sig: &Signature) {
    let bytes = encode_signature(sig);
    let decoded = decode_signature(&bytes).expect("signature decodes");
    assert_eq!(
        sig.types().collect::<Vec<_>>(),
        decoded.types().collect::<Vec<_>>()
    );
    assert_eq!(
        sig.consts().collect::<Vec<_>>(),
        decoded.consts().collect::<Vec<_>>()
    );
}

/// Round-trips a rule set against its signature: rule count, names,
/// subject types, and both canonical sides (compared as interned nodes,
/// hence up to α) must survive; native rules come back as names.
fn assert_rules_round_trip(sig: &Signature, rules: &hoas::rewrite::RuleSet) {
    let bytes = encode_rule_set(rules);
    let (decoded, native_names) = decode_rule_set(sig, &bytes).expect("rule set decodes");
    let before = rules.rules();
    let after = decoded.rules();
    assert_eq!(before.len(), after.len());
    for (b, a) in before.iter().zip(after) {
        assert_eq!(b.name(), a.name());
        assert_eq!(b.ty(), a.ty());
        assert_eq!(b.lhs(), a.lhs(), "lhs of `{}` changed", b.name());
        assert_eq!(b.rhs(), a.rhs(), "rhs of `{}` changed", b.name());
    }
    let native_before: Vec<&str> = rules.native_rules().iter().map(|n| n.name()).collect();
    assert_eq!(native_before, native_names);
}

/// Every truncation of `bytes` must be rejected.
fn assert_truncations_rejected(bytes: &[u8], decode: &dyn Fn(&[u8]) -> bool) {
    for len in 0..bytes.len() {
        assert!(
            !decode(&bytes[..len]),
            "truncation to {len}/{} bytes was accepted",
            bytes.len()
        );
    }
}

/// Every single-bit flip of `bytes` must be rejected.
fn assert_bit_flips_rejected(bytes: &[u8], decode: &dyn Fn(&[u8]) -> bool) {
    let mut work = bytes.to_vec();
    for i in 0..work.len() {
        for bit in 0..8 {
            work[i] ^= 1 << bit;
            assert!(!decode(&work), "flip of bit {bit} in byte {i} was accepted");
            work[i] ^= 1 << bit;
        }
    }
}

props! {
    #![cases(48)]

    fn lambda_terms_round_trip(seed in seeds(), size in 2usize..40) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = lambda::encode(&lambda::gen_closed(&mut rng, size)).unwrap();
        assert_term_round_trips(&t);
    }

    fn fol_terms_round_trip(seed in seeds(), depth in 1u32..6) {
        let vocab = fol::Vocabulary::small();
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = fol::encode(&fol::gen_formula(&vocab, &mut rng, depth)).unwrap();
        assert_term_round_trips(&t);
    }

    fn imp_terms_round_trip(seed in seeds(), depth in 1u32..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let t = imp::encode(&imp::gen_cmd(&mut rng, depth)).unwrap();
        assert_term_round_trips(&t);
    }
}

#[test]
fn miniml_terms_round_trip() {
    // Mini-ML has no random generator; sweep the structured corpus.
    for e in [
        miniml::add_fn(),
        miniml::mul_fn(),
        miniml::fact_fn(),
        miniml::Exp::app(
            miniml::Exp::app(miniml::add_fn(), miniml::Exp::num(4)),
            miniml::Exp::num(5),
        ),
    ] {
        assert_term_round_trips(&miniml::encode(&e).unwrap());
    }
}

#[test]
fn signatures_round_trip_over_all_languages() {
    assert_signature_round_trips(lambda::signature());
    assert_signature_round_trips(imp::signature());
    assert_signature_round_trips(miniml::signature());
    assert_signature_round_trips(&fol::Vocabulary::small().signature());
}

#[test]
fn bundled_rule_sets_round_trip() {
    let fol_sig = fol::Vocabulary::small().signature();
    assert_rules_round_trip(&fol_sig, &fol_prenex::rules(&fol_sig).unwrap());
    assert_rules_round_trip(imp::signature(), &imp_opt::rules(imp::signature()).unwrap());
    assert_rules_round_trip(
        miniml::signature(),
        &miniml_opt::rules(miniml::signature()).unwrap(),
    );
}

#[test]
fn corrupt_streams_are_rejected_never_misloaded() {
    // One representative stream per codec kind; exhaustive truncation
    // and single-bit-flip sweeps over each.
    let term = fol::encode(&fol::gen_formula(
        &fol::Vocabulary::small(),
        &mut SmallRng::seed_from_u64(0xc0dec),
        3,
    ))
    .unwrap();
    let term_bytes = encode_term(&term);
    let term_ok = |b: &[u8]| decode_term(b).is_ok();
    assert_truncations_rejected(&term_bytes, &term_ok);
    assert_bit_flips_rejected(&term_bytes, &term_ok);

    let sig = fol::Vocabulary::small().signature();
    let sig_bytes = encode_signature(&sig);
    let sig_ok = |b: &[u8]| decode_signature(b).is_ok();
    assert_truncations_rejected(&sig_bytes, &sig_ok);
    assert_bit_flips_rejected(&sig_bytes, &sig_ok);

    let rules_bytes = encode_rule_set(&fol_prenex::rules(&sig).unwrap());
    let rules_ok = |b: &[u8]| decode_rule_set(&sig, b).is_ok();
    assert_truncations_rejected(&rules_bytes, &rules_ok);
}

#[test]
fn future_versions_are_rejected_as_such() {
    let bytes = encode_term(
        &fol::encode(&fol::gen_formula(
            &fol::Vocabulary::small(),
            &mut SmallRng::seed_from_u64(7),
            2,
        ))
        .unwrap(),
    );
    let mut bumped = bytes.clone();
    let next = (VERSION + 1).to_le_bytes();
    bumped[4] = next[0];
    bumped[5] = next[1];
    // The version gate fires before the checksum is even consulted, so
    // the error names the version, not generic corruption.
    assert_eq!(
        decode_term(&bumped).unwrap_err(),
        CodecError::BadVersion { found: VERSION + 1 }
    );

    // Kind confusion is also caught by name.
    let sig_bytes = encode_signature(&fol::Vocabulary::small().signature());
    assert!(matches!(
        decode_term(&sig_bytes).unwrap_err(),
        CodecError::WrongKind { found, .. } if found == Kind::Signature as u8
    ));
}
