//! Compact, versioned binary codec for terms and types — and, via the
//! same [`Encoder`]/[`Decoder`] pair, the `rewrite` crate's warm images.
//!
//! # Wire layout
//!
//! ```text
//! magic "HOAS" | version u16 LE | kind u8
//! | pool_len varint | pool (one record per node, post-order)
//! | pool digest u128 LE
//! | body (payload-specific)
//! | checksum u64 LE (over everything preceding it)
//! ```
//!
//! Every term a payload mentions lives in the **node pool**: a
//! child-before-parent sequence of records `old_id varint | tag u8 |
//! payload`, where child references are *pool indices* (always
//! backwards). The body then refers to terms by pool index too. Decoding
//! re-interns the pool bottom-up into the thread's current store, which
//! yields the `NodeId → NodeId` **remap table**: `old_id` (the writing
//! process's id) maps to whatever id the reading store assigns — the
//! key step that makes process-local ids transportable. Warm images
//! (see `store::image` and the `rewrite` crate) use the remap table to
//! re-key cache entries recorded under old ids.
//!
//! # Integrity, in check order
//!
//! 1. length floor, magic, version, kind — cheap header rejections
//!    ([`CodecError::Truncated`] / [`CodecError::BadMagic`] /
//!    [`CodecError::BadVersion`] / [`CodecError::WrongKind`]);
//! 2. the trailing **checksum**, verified *before any parsing*, so a
//!    truncated or bit-flipped image is rejected outright rather than
//!    half-loaded ([`CodecError::Corrupt`]);
//! 3. the **pool digest**: the writer folds every pooled node's 128-bit
//!    content hash (in pool order) into one value; the reader recomputes
//!    it from the hashes of the *re-interned* nodes. Agreement proves
//!    the content hashes are identical on both sides — the
//!    content-addressing contract — and doubles as a defence in depth
//!    against any decode bug that would alter a skeleton.
//!
//! The checksum and digest are built from the same vendored keyed mixer
//! as the content hash (no external deps; fixed key, so images are
//! portable across processes).

use crate::intern::Sym;
use crate::store::{self, NodeId};
use crate::term::{MVar, Term, TermRef};
use crate::ty::Ty;
use std::collections::HashMap;
use std::fmt;

/// File magic. ASCII so a corrupted header is recognizable in hex dumps.
pub const MAGIC: [u8; 4] = *b"HOAS";

/// Format version; bumped on any layout change. Decoders reject other
/// versions outright — no silent cross-version reinterpretation.
pub const VERSION: u16 = 5;

/// What a byte stream encodes; checked before any payload is parsed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// A single term (plus its subterm pool).
    Term = 1,
    /// Reserved (a signature): no encoder writes it, and the value is
    /// never reused for another payload.
    Signature = 2,
    /// Reserved (a rewrite rule set), as [`Kind::Signature`] is.
    Rules = 3,
    /// Reserved (a λProlog program), as [`Kind::Signature`] is.
    Program = 4,
    /// A warm image: store pool + engine cache sections.
    Image = 5,
}

impl Kind {
    fn from_u8(b: u8) -> Option<Kind> {
        match b {
            1 => Some(Kind::Term),
            2 => Some(Kind::Signature),
            3 => Some(Kind::Rules),
            4 => Some(Kind::Program),
            5 => Some(Kind::Image),
            _ => None,
        }
    }
}

/// Why a byte stream was rejected. Ordering of checks guarantees the
/// most specific error: header problems are reported before corruption.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The stream ends before the structure it promises.
    Truncated,
    /// The magic bytes are not `"HOAS"`.
    BadMagic,
    /// A version this build does not read.
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The stream is well-formed but encodes a different [`Kind`].
    WrongKind {
        /// The kind the caller asked for.
        expected: u8,
        /// The kind found in the header.
        found: u8,
    },
    /// The checksum or pool digest failed, or an internal reference is
    /// out of range: the bytes were damaged in flight or at rest.
    Corrupt(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated stream"),
            CodecError::BadMagic => write!(f, "bad magic (not a HOAS stream)"),
            CodecError::BadVersion { found } => {
                write!(
                    f,
                    "unsupported format version {found} (this build reads {VERSION})"
                )
            }
            CodecError::WrongKind { expected, found } => {
                write!(f, "wrong stream kind: expected {expected}, found {found}")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Depth bound on decoded type recursion. Types deeper than this cannot
/// come from our own encoder (encoding would have overflowed the stack
/// first); a crafted stream must not be able to overflow the decoder's.
const MAX_TY_DEPTH: u32 = 10_000;

/// Seed of the pool digest and checksum chains (distinct from the
/// content-hash seed so a digest can never be confused with a node
/// hash).
const DIGEST_SEED: u128 = 0x4845_5253_4845_5253_0000_0000_484F_4153;

/// Keyed checksum over a byte slice: the content-hash mixer folded over
/// 16-byte words, truncated to 64 bits. Not cryptographic — it defends
/// against accidental corruption (truncation, bit flips, torn writes),
/// not forgery.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = DIGEST_SEED;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        h = store::ch_mix(h, u128::from_le_bytes(chunk.try_into().unwrap()));
    }
    let rest = chunks.remainder();
    let mut buf = [0u8; 16];
    buf[..rest.len()].copy_from_slice(rest);
    h = store::ch_mix(h, u128::from_le_bytes(buf) ^ ((bytes.len() as u128) << 120));
    h as u64
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Streaming writer: body bytes plus the shared node pool, assembled
/// into the final framed stream by [`Encoder::finish`].
pub struct Encoder {
    kind: Kind,
    body: Vec<u8>,
    pool: Vec<u8>,
    pool_len: u64,
    pool_index: HashMap<NodeId, u64>,
    digest: u128,
}

impl Encoder {
    /// A fresh encoder for a stream of the given kind.
    pub fn new(kind: Kind) -> Encoder {
        Encoder {
            kind,
            body: Vec::new(),
            pool: Vec::new(),
            pool_len: 0,
            pool_index: HashMap::new(),
            digest: DIGEST_SEED,
        }
    }

    /// Writes one byte to the body.
    pub fn put_u8(&mut self, v: u8) {
        self.body.push(v);
    }

    /// Writes a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.body.push(v as u8);
    }

    /// Writes an unsigned integer as a LEB128 varint.
    pub fn put_u64(&mut self, v: u64) {
        put_varint(&mut self.body, v);
    }

    /// Writes a `u32` as a varint.
    pub fn put_u32(&mut self, v: u32) {
        put_varint(&mut self.body, v as u64);
    }

    /// Writes a signed integer zigzag-encoded as a varint.
    pub fn put_i64(&mut self, v: i64) {
        put_varint(&mut self.body, zigzag(v));
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        put_varint(&mut self.body, s.len() as u64);
        self.body.extend_from_slice(s.as_bytes());
    }

    /// Writes an interned symbol (as its string).
    pub fn put_sym(&mut self, s: &Sym) {
        self.put_str(s.as_str());
    }

    /// Writes a type, prefix form.
    pub fn put_ty(&mut self, ty: &Ty) {
        match ty {
            Ty::Base(name) => {
                self.put_u8(0);
                self.put_sym(name);
            }
            Ty::Int => self.put_u8(1),
            Ty::Var(v) => {
                self.put_u8(2);
                self.put_u32(*v);
            }
            Ty::Arrow(dom, cod) => {
                self.put_u8(3);
                self.put_ty(dom);
                self.put_ty(cod);
            }
            Ty::Prod(a, b) => {
                self.put_u8(4);
                self.put_ty(a);
                self.put_ty(b);
            }
            Ty::Unit => self.put_u8(5),
        }
    }

    /// Writes a term to the body as a pool index, registering it (and
    /// its subterms) in the pool first.
    pub fn put_term(&mut self, t: &Term) {
        // Interning is how a bare `Term` reaches its node: for an
        // already-interned skeleton this is a pure store hit.
        let r = TermRef::new(t.clone());
        self.put_term_ref(&r);
    }

    /// Writes an interned term to the body as a pool index.
    pub fn put_term_ref(&mut self, t: &TermRef) {
        let idx = self.register(t);
        put_varint(&mut self.body, idx);
    }

    /// Adds `t` and every subterm to the node pool (children before
    /// parents, each α-class once) and returns `t`'s pool index.
    pub fn register(&mut self, t: &TermRef) -> u64 {
        if let Some(&idx) = self.pool_index.get(&t.id()) {
            return idx;
        }
        enum Frame<'a> {
            Visit(&'a TermRef),
            Emit(&'a TermRef),
        }
        let mut stack = vec![Frame::Visit(t)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Visit(n) => {
                    if self.pool_index.contains_key(&n.id()) {
                        continue;
                    }
                    stack.push(Frame::Emit(n));
                    match n.term() {
                        Term::Lam(_, b) => stack.push(Frame::Visit(b)),
                        Term::App(f, a) => {
                            stack.push(Frame::Visit(a));
                            stack.push(Frame::Visit(f));
                        }
                        Term::Pair(a, b) => {
                            stack.push(Frame::Visit(b));
                            stack.push(Frame::Visit(a));
                        }
                        Term::Fst(p) | Term::Snd(p) => stack.push(Frame::Visit(p)),
                        _ => {}
                    }
                }
                Frame::Emit(n) => {
                    // A shared child reached twice (e.g. `App(x, x)`) has
                    // two Emit frames; the second is a no-op.
                    if !self.pool_index.contains_key(&n.id()) {
                        self.emit_node(n);
                    }
                }
            }
        }
        self.pool_index[&t.id()]
    }

    fn emit_node(&mut self, n: &TermRef) {
        let child = |enc: &Encoder, c: &TermRef| enc.pool_index[&c.id()];
        put_varint(&mut self.pool, n.id().get());
        match n.term() {
            Term::Var(i) => {
                self.pool.push(1);
                put_varint(&mut self.pool, *i as u64);
            }
            Term::Const(c) => {
                self.pool.push(2);
                put_varint(&mut self.pool, c.as_str().len() as u64);
                self.pool.extend_from_slice(c.as_str().as_bytes());
            }
            Term::Meta(m) => {
                self.pool.push(3);
                put_varint(&mut self.pool, m.id() as u64);
                put_varint(&mut self.pool, m.hint().as_str().len() as u64);
                self.pool.extend_from_slice(m.hint().as_str().as_bytes());
            }
            Term::Int(v) => {
                self.pool.push(4);
                put_varint(&mut self.pool, zigzag(*v));
            }
            Term::Unit => self.pool.push(5),
            Term::Lam(hint, b) => {
                let b = child(self, b);
                self.pool.push(6);
                put_varint(&mut self.pool, hint.as_str().len() as u64);
                self.pool.extend_from_slice(hint.as_str().as_bytes());
                put_varint(&mut self.pool, b);
            }
            Term::App(f, a) => {
                let (f, a) = (child(self, f), child(self, a));
                self.pool.push(7);
                put_varint(&mut self.pool, f);
                put_varint(&mut self.pool, a);
            }
            Term::Pair(a, b) => {
                let (a, b) = (child(self, a), child(self, b));
                self.pool.push(8);
                put_varint(&mut self.pool, a);
                put_varint(&mut self.pool, b);
            }
            Term::Fst(p) => {
                let p = child(self, p);
                self.pool.push(9);
                put_varint(&mut self.pool, p);
            }
            Term::Snd(p) => {
                let p = child(self, p);
                self.pool.push(10);
                put_varint(&mut self.pool, p);
            }
        }
        self.pool_index.insert(n.id(), self.pool_len);
        self.pool_len += 1;
        self.digest = store::ch_mix(self.digest, n.content_hash());
    }

    /// Frames header + pool + digest + body and appends the checksum.
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.pool.len() + self.body.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.kind as u8);
        put_varint(&mut out, self.pool_len);
        out.extend_from_slice(&self.pool);
        out.extend_from_slice(&self.digest.to_le_bytes());
        out.extend_from_slice(&self.body);
        let sum = checksum(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }
}

/// Streaming reader over a framed stream. Construction performs the
/// header, checksum, pool, and digest checks (in that order); the body
/// is then read through the `get_*` methods, and [`Decoder::finish`]
/// asserts full consumption.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    /// End of the body (exclusive; the checksum trailer lies beyond).
    end: usize,
    /// Pool nodes, re-interned into the current store, by pool index.
    refs: Vec<TermRef>,
    /// Old (writer-process) raw id → this store's id, from the pool.
    remap: HashMap<u64, NodeId>,
    /// How many pool nodes changed id in the remap.
    remapped: u64,
}

impl<'a> Decoder<'a> {
    /// Validates the frame and re-interns the node pool into the
    /// thread's current store.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`]; see the module docs for the check order.
    pub fn new(bytes: &'a [u8], expected: Kind) -> Result<Decoder<'a>, CodecError> {
        // Header floor: magic + version + kind + checksum trailer.
        if bytes.len() < MAGIC.len() + 2 + 1 + 8 {
            return Err(CodecError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(CodecError::BadVersion { found: version });
        }
        let kind = bytes[6];
        if Kind::from_u8(kind) != Some(expected) {
            return Err(CodecError::WrongKind {
                expected: expected as u8,
                found: kind,
            });
        }
        // Checksum before any parsing: damaged bytes never reach the
        // structural decoder, let alone the store.
        let end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[end..].try_into().unwrap());
        if checksum(&bytes[..end]) != stored {
            return Err(CodecError::Corrupt("checksum mismatch"));
        }
        let mut dec = Decoder {
            buf: bytes,
            pos: 7,
            end,
            refs: Vec::new(),
            remap: HashMap::new(),
            remapped: 0,
        };
        dec.decode_pool()?;
        Ok(dec)
    }

    fn decode_pool(&mut self) -> Result<(), CodecError> {
        let count = self.get_u64()?;
        // A record is ≥ 2 bytes (old id + tag), so `count` can never
        // exceed the remaining bytes — reject before allocating.
        if count > (self.end - self.pos) as u64 {
            return Err(CodecError::Corrupt("pool count exceeds stream size"));
        }
        let mut digest = DIGEST_SEED;
        for _ in 0..count {
            let old_id = self.get_u64()?;
            let tag = self.get_u8()?;
            let term = match tag {
                1 => Term::Var(self.get_u32()?),
                2 => Term::Const(Sym::new(self.get_str()?)),
                3 => {
                    let id = self.get_u32()?;
                    let hint = self.get_str()?;
                    Term::Meta(MVar::new(id, hint))
                }
                4 => Term::Int(self.get_i64()?),
                5 => Term::Unit,
                6 => {
                    let hint = self.get_str()?;
                    Term::Lam(Sym::new(hint), self.get_pool_ref()?)
                }
                7 => {
                    let f = self.get_pool_ref()?;
                    let a = self.get_pool_ref()?;
                    Term::App(f, a)
                }
                8 => {
                    let a = self.get_pool_ref()?;
                    let b = self.get_pool_ref()?;
                    Term::Pair(a, b)
                }
                9 => Term::Fst(self.get_pool_ref()?),
                10 => Term::Snd(self.get_pool_ref()?),
                _ => return Err(CodecError::Corrupt("unknown pool node tag")),
            };
            let node = TermRef::new(term);
            digest = store::ch_mix(digest, node.content_hash());
            if old_id != node.id().get() {
                self.remapped += 1;
            }
            self.remap.insert(old_id, node.id());
            self.refs.push(node);
        }
        let stored = self.get_u128()?;
        // Recomputed from the re-interned nodes: equality proves the
        // content hashes match the writer's, node for node.
        if digest != stored {
            return Err(CodecError::Corrupt("pool digest mismatch"));
        }
        Ok(())
    }

    fn get_pool_ref(&mut self) -> Result<TermRef, CodecError> {
        let idx = self.get_u64()? as usize;
        // Children strictly precede parents, so only already-decoded
        // indices are valid.
        self.refs
            .get(idx)
            .cloned()
            .ok_or(CodecError::Corrupt("forward pool reference"))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        if self.pos >= self.end {
            return Err(CodecError::Truncated);
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Reads a bool byte (`0` or `1`).
    pub fn get_bool(&mut self) -> Result<bool, CodecError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bad bool byte")),
        }
    }

    /// Reads a LEB128 varint.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CodecError::Corrupt("varint overflow"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Corrupt("varint overflow"));
            }
        }
    }

    /// Reads a varint that must fit `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.get_u64()?).map_err(|_| CodecError::Corrupt("u32 out of range"))
    }

    /// Reads a zigzag varint.
    pub fn get_i64(&mut self) -> Result<i64, CodecError> {
        Ok(unzigzag(self.get_u64()?))
    }

    fn get_u128(&mut self) -> Result<u128, CodecError> {
        if self.end - self.pos < 16 {
            return Err(CodecError::Truncated);
        }
        let v = u128::from_le_bytes(self.buf[self.pos..self.pos + 16].try_into().unwrap());
        self.pos += 16;
        Ok(v)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CodecError> {
        let len = self.get_u64()? as usize;
        if self.end - self.pos < len {
            return Err(CodecError::Truncated);
        }
        let s = std::str::from_utf8(&self.buf[self.pos..self.pos + len])
            .map_err(|_| CodecError::Corrupt("non-UTF-8 string"))?
            .to_string();
        self.pos += len;
        Ok(s)
    }

    /// Reads a symbol.
    pub fn get_sym(&mut self) -> Result<Sym, CodecError> {
        Ok(Sym::new(self.get_str()?))
    }

    /// Reads a type.
    pub fn get_ty(&mut self) -> Result<Ty, CodecError> {
        self.get_ty_depth(0)
    }

    fn get_ty_depth(&mut self, depth: u32) -> Result<Ty, CodecError> {
        if depth > MAX_TY_DEPTH {
            return Err(CodecError::Corrupt("type recursion too deep"));
        }
        Ok(match self.get_u8()? {
            0 => Ty::Base(self.get_sym()?),
            1 => Ty::Int,
            2 => Ty::Var(self.get_u32()?),
            3 => {
                let dom = self.get_ty_depth(depth + 1)?;
                let cod = self.get_ty_depth(depth + 1)?;
                Ty::Arrow(Box::new(dom), Box::new(cod))
            }
            4 => {
                let a = self.get_ty_depth(depth + 1)?;
                let b = self.get_ty_depth(depth + 1)?;
                Ty::Prod(Box::new(a), Box::new(b))
            }
            5 => Ty::Unit,
            _ => return Err(CodecError::Corrupt("unknown type tag")),
        })
    }

    /// Reads a term (a pool index) from the body.
    pub fn get_term(&mut self) -> Result<TermRef, CodecError> {
        let idx = self.get_u64()? as usize;
        self.refs
            .get(idx)
            .cloned()
            .ok_or(CodecError::Corrupt("term pool index out of range"))
    }

    /// The id this store assigned to the writer's node `old_id`, if that
    /// node was in the pool.
    pub fn remap_id(&self, old_id: u64) -> Option<NodeId> {
        self.remap.get(&old_id).copied()
    }

    /// Number of pooled nodes.
    pub fn pool_len(&self) -> u64 {
        self.refs.len() as u64
    }

    /// How many pooled nodes landed on a *different* id than the writer
    /// recorded (usually all of them in a fresh process; can be zero
    /// when decoding back into the writing store).
    pub fn remapped_ids(&self) -> u64 {
        self.remapped
    }

    /// Asserts the body was fully consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Corrupt`] when trailing bytes remain.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.pos != self.end {
            return Err(CodecError::Corrupt("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Encodes a single term.
pub fn encode_term(t: &Term) -> Vec<u8> {
    let mut enc = Encoder::new(Kind::Term);
    enc.put_term(t);
    enc.finish()
}

/// Decodes a [`Kind::Term`] stream, re-interning into the current store.
///
/// # Errors
///
/// Any [`CodecError`]; see the module docs for the check order.
pub fn decode_term(bytes: &[u8]) -> Result<TermRef, CodecError> {
    let mut dec = Decoder::new(bytes, Kind::Term)?;
    let t = dec.get_term()?;
    dec.finish()?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_term() -> Term {
        Term::lam(
            "x",
            Term::app(
                Term::app(Term::cnst("codec-f"), Term::Var(0)),
                Term::pair(Term::Int(-7), Term::Unit),
            ),
        )
    }

    #[test]
    fn term_round_trip_preserves_identity_and_content_hash() {
        let t = sample_term();
        let bytes = encode_term(&t);
        let decoded = decode_term(&bytes).expect("round trip");
        let original = TermRef::new(t);
        // Same store: the decode re-interns onto the very same node.
        assert_eq!(decoded, original);
        assert_eq!(decoded.content_hash(), original.content_hash());
    }

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            // Round-trip through a term-free frame.
            let mut enc = Encoder::new(Kind::Term);
            enc.put_u64(v);
            enc.put_i64(v as i64);
            let bytes = enc.finish();
            let mut dec = Decoder::new(&bytes, Kind::Term).unwrap();
            assert_eq!(dec.get_u64().unwrap(), v);
            assert_eq!(dec.get_i64().unwrap(), v as i64);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn header_rejections_take_precedence() {
        let bytes = encode_term(&sample_term());
        assert_eq!(decode_term(&bytes[..3]), Err(CodecError::Truncated));
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(decode_term(&bad_magic), Err(CodecError::BadMagic));
        let mut bad_version = bytes.clone();
        bad_version[4] = VERSION as u8 + 1;
        // Version check fires before the checksum check.
        assert_eq!(
            decode_term(&bad_version),
            Err(CodecError::BadVersion { found: VERSION + 1 })
        );
        // A well-formed stream of another kind: an empty warm image.
        let image = Encoder::new(Kind::Image).finish();
        assert!(matches!(
            decode_term(&image),
            Err(CodecError::WrongKind { .. })
        ));
    }

    #[test]
    fn every_bit_flip_is_rejected_or_detected() {
        let bytes = encode_term(&sample_term());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                assert!(
                    decode_term(&flipped).is_err(),
                    "flip of byte {i} bit {bit} was not rejected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = encode_term(&sample_term());
        for len in 0..bytes.len() {
            assert!(
                decode_term(&bytes[..len]).is_err(),
                "truncation to {len} bytes was not rejected"
            );
        }
    }
}
