//! Property tests for the binary codec: `decode(encode(t)) = t` up to
//! `NodeId` remap, over all four object languages' encoders.
//!
//! * terms — decoding in the same store lands on the *same* node (ids
//!   equal), and the 128-bit content hash survives the round trip;
//! * corruption — truncated or bit-flipped streams are *rejected*,
//!   never mis-loaded, and a version bump or a stream of another kind
//!   is reported as such.

use hoas::core::codec::{decode_term, encode_term, CodecError, Kind, VERSION};
use hoas::core::prelude::*;
use hoas::langs::{fol, imp, lambda, miniml};
use hoas::rewrite::image::save_warm_image;
use hoas::rewrite::EngineCaches;
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
fn corrupt_streams_are_rejected_never_misloaded() {
    // A representative term stream; exhaustive truncation and
    // single-bit-flip sweeps over it.
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

    // Kind confusion is also caught by name: a warm image with empty
    // caches, saved from an isolated store, read as a term.
    let image = StoreHandle::isolated().enter(|| save_warm_image(&EngineCaches::new()));
    assert!(matches!(
        decode_term(&image).unwrap_err(),
        CodecError::WrongKind { found, .. } if found == Kind::Image as u8
    ));
}
