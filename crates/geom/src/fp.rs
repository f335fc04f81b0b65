//! Stable content fingerprints — the keys of the incremental engine.
//!
//! `silc-incr` memoizes every pipeline stage by the **content hash** of
//! its inputs, so the hash must be (a) stable across processes and
//! toolchain versions (it is persisted in the on-disk cache), (b) cheap,
//! and (c) collision-resistant enough that a 128-bit digest over designs
//! of at most a few million elements never collides in practice. The
//! standard-library `Hasher`s guarantee none of that, so this module
//! implements MurmurHash3 x64_128 by hand, 16 bytes a step, and a
//! [`Fingerprint`] trait in the spirit of `std::hash::Hash`, with
//! explicit domain separation (length prefixes and variant tags) so
//! `["ab","c"]` and `["a","bc"]` differ.
//!
//! The trait lives here, at the bottom of the crate graph, so every
//! pipeline crate (`lang`, `layout`, `drc`, `cif`, `extract`, `rtl`,
//! `netlist`) can implement it for its own types without depending on
//! the engine.
//!
//! So does the cache's codec ([`crate::Persist`]), which stores a value
//! as exactly this stream; the decoder of each type here sits next to
//! its `fp_hash`.
//!
//! # Example
//!
//! ```
//! use silc_geom::{Fingerprint, Point, Rect};
//!
//! let a = Rect::new(Point::new(0, 0), Point::new(4, 2)).unwrap();
//! let b = Rect::new(Point::new(0, 0), Point::new(4, 2)).unwrap();
//! assert_eq!(a.fingerprint(), b.fingerprint());
//! assert_ne!(a.fingerprint(), Point::new(0, 0).fingerprint());
//! ```

use crate::codec::{Dec, DecodeError, Persist};
use crate::{persist, Orientation, Path, Point, Polygon, Rect, Transform, Vector};
use std::fmt;

/// A 128-bit stable content hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fp(u128);

impl Fp {
    /// The raw 128-bit digest.
    pub const fn raw(self) -> u128 {
        self.0
    }

    /// Rebuilds a fingerprint from its raw digest (e.g. read back from a
    /// persistent cache header).
    pub const fn from_raw(raw: u128) -> Fp {
        Fp(raw)
    }

    /// The digest as 16 little-endian bytes, for serialization.
    pub const fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Rebuilds a fingerprint from [`Fp::to_le_bytes`] output.
    pub const fn from_le_bytes(bytes: [u8; 16]) -> Fp {
        Fp(u128::from_le_bytes(bytes))
    }

    /// 32-hex-digit rendering, used in cache file names.
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Debug for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fp({:032x})", self.0)
    }
}

impl fmt::Display for Fp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Streaming MurmurHash3 x64_128 (Austin Appleby, public domain), seed
/// 0, behind [`Fingerprint`].
///
/// The message is the byte stream the `fp_hash` impls write, read as
/// 16-byte little-endian blocks, with the total length folded in by
/// [`FpHasher::finish`]. A partial block waits in `pending`, so the
/// digest depends only on the concatenated bytes, never on how `write`
/// calls split them. Blocks are decoded little-endian explicitly and
/// every step is wrapping `u64` arithmetic, so digests are identical on
/// every platform and toolchain; the digests of `""` and `"a"` are
/// pinned by this module's tests.
///
/// The same sink also *keeps* the stream instead of hashing it
/// ([`FpHasher::buffer`]): the bytes a value is stored under in the
/// persistent cache are exactly the bytes its [`Fingerprint::fp_hash`]
/// feeds the hash, so the two can never drift apart.
#[derive(Debug, Clone)]
pub struct FpHasher {
    h1: u64,
    h2: u64,
    /// The `len % 16` bytes of the unfinished block, little-endian; the
    /// rest is zero.
    pending: u128,
    /// Bytes absorbed so far.
    len: u64,
    /// `Some` in buffering mode: bytes are appended here, not hashed.
    kept: Option<Vec<u8>>,
}

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

#[inline]
fn mix_k1(k1: u64) -> u64 {
    k1.wrapping_mul(C1).rotate_left(31).wrapping_mul(C2)
}

#[inline]
fn mix_k2(k2: u64) -> u64 {
    k2.wrapping_mul(C2).rotate_left(33).wrapping_mul(C1)
}

/// Absorbs one 16-byte block (`k1` its low half) into `(h1, h2)`.
#[inline]
fn block((h1, h2): (u64, u64), k: u128) -> (u64, u64) {
    let h1 = (h1 ^ mix_k1(k as u64))
        .rotate_left(27)
        .wrapping_add(h2)
        .wrapping_mul(5)
        .wrapping_add(0x52dc_e729);
    let h2 = (h2 ^ mix_k2((k >> 64) as u64))
        .rotate_left(31)
        .wrapping_add(h1)
        .wrapping_mul(5)
        .wrapping_add(0x3849_5ab5);
    (h1, h2)
}

fn fmix64(k: u64) -> u64 {
    let k = (k ^ (k >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    let k = (k ^ (k >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Up to 16 bytes as the low bytes of a little-endian `u128`.
#[inline]
fn le_tail(bytes: &[u8]) -> u128 {
    let mut buf = [0u8; 16];
    buf[..bytes.len()].copy_from_slice(bytes);
    u128::from_le_bytes(buf)
}

impl FpHasher {
    /// A fresh hasher (seed 0).
    pub fn new() -> FpHasher {
        FpHasher {
            h1: 0,
            h2: 0,
            pending: 0,
            len: 0,
            kept: None,
        }
    }

    /// A sink that keeps every absorbed byte for [`FpHasher::into_bytes`]
    /// and pays no hashing arithmetic while doing so.
    pub fn buffer() -> FpHasher {
        FpHasher {
            kept: Some(Vec::new()),
            ..FpHasher::new()
        }
    }

    /// The bytes a [`FpHasher::buffer`] sink absorbed (empty for a
    /// hashing one).
    pub fn into_bytes(self) -> Vec<u8> {
        self.kept.unwrap_or_default()
    }

    /// Absorbs raw bytes (no length prefix — callers that hash
    /// variable-length data should write the length first).
    pub fn write(&mut self, mut bytes: &[u8]) {
        if bytes.len() <= 8 {
            // A short write is a word: a name, a tag, a port.
            let word = bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            return self.push(word, bytes.len() as u32);
        }
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(bytes);
            return;
        }
        let at = (self.len % 16) as usize;
        self.len += bytes.len() as u64;
        let mut h = (self.h1, self.h2);
        if at > 0 {
            let take = bytes.len().min(16 - at);
            self.pending |= le_tail(&bytes[..take]) << (8 * at);
            if at + take < 16 {
                return;
            }
            h = block(h, self.pending);
            bytes = &bytes[take..];
        }
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            h = block(h, u128::from_le_bytes(b.try_into().expect("16 bytes")));
        }
        self.pending = le_tail(blocks.remainder());
        (self.h1, self.h2) = h;
    }

    /// Absorbs the low `n` (at most 8) bytes of `v`, which has no others,
    /// straight into the pending block.
    #[inline]
    fn push(&mut self, v: u64, n: u32) {
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(&v.to_le_bytes()[..n as usize]);
            return;
        }
        let at = (self.len % 16) as u32;
        self.len += u64::from(n);
        let v = u128::from(v);
        self.pending |= v << (8 * at);
        if at + n >= 16 {
            (self.h1, self.h2) = block((self.h1, self.h2), self.pending);
            // `16 - at` is 1..=8 here: the bytes of `v` past the block.
            self.pending = v >> (8 * (16 - at));
        }
    }

    /// Absorbs one byte.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.push(u64::from(v), 1);
    }

    /// Absorbs a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.push(u64::from(v), 4);
    }

    /// Absorbs a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.push(v, 8);
    }

    /// Absorbs an `i64` (little-endian two's complement).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.push(v as u64, 8);
    }

    /// Absorbs a `usize`, widened to 64 bits for portability.
    #[inline]
    pub fn write_len(&mut self, v: usize) {
        self.push(v as u64, 8);
    }

    /// Absorbs a string with a length prefix.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write(s.as_bytes());
    }

    /// The digest of everything hashed so far (a buffering sink hashes
    /// nothing): `h1` in the low half, so [`Fp::to_le_bytes`] is the
    /// function's canonical 16-byte output.
    pub fn finish(&self) -> Fp {
        // The tail's halves are mixed like a block's but not folded in.
        // A half the tail does not reach mixes to 0, which changes
        // nothing, so neither half needs a test.
        let h1 = self.h1 ^ mix_k1(self.pending as u64) ^ self.len;
        let h2 = self.h2 ^ mix_k2((self.pending >> 64) as u64) ^ self.len;
        let h1 = h1.wrapping_add(h2);
        let h2 = h2.wrapping_add(h1);
        let (h1, h2) = (fmix64(h1), fmix64(h2));
        let h1 = h1.wrapping_add(h2);
        let h2 = h2.wrapping_add(h1);
        Fp(u128::from(h1) | u128::from(h2) << 64)
    }
}

impl Default for FpHasher {
    fn default() -> FpHasher {
        FpHasher::new()
    }
}

/// Stable content hashing, implemented by every type that can key or
/// feed an incremental query.
///
/// Implementations must be **pure functions of the value's content**: no
/// addresses, no map iteration order, no clocks. Two values that compare
/// equal must fingerprint equal; values that differ should differ (the
/// 128-bit digest makes accidental collisions negligible). The digest is
/// MurmurHash3 x64_128 of the byte stream `fp_hash` writes, which
/// [`FpHasher`] reads as explicit little-endian blocks, so a fingerprint
/// is the same on every platform and toolchain.
pub trait Fingerprint {
    /// Absorbs this value's content into `h`.
    fn fp_hash(&self, h: &mut FpHasher);

    /// The standalone digest of this value.
    fn fingerprint(&self) -> Fp {
        let mut h = FpHasher::new();
        self.fp_hash(&mut h);
        h.finish()
    }
}

impl Fingerprint for u8 {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u8(*self);
    }
}

impl Fingerprint for u32 {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u32(*self);
    }
}

impl Persist for u32 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.u32()
    }
}

impl Fingerprint for u64 {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u64(*self);
    }
}

impl Persist for u64 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.u64()
    }
}

impl Fingerprint for i64 {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_i64(*self);
    }
}

impl Fingerprint for usize {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_len(*self);
    }
}

/// A count, not a length: it is not bounded by the entry's size.
impl Persist for usize {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let v = d.u64()?;
        usize::try_from(v).map_err(|_| format!("count {v} exceeds usize"))
    }
}

impl Fingerprint for bool {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_u8(u8::from(*self));
    }
}

impl Persist for bool {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid bool tag {v}")),
        }
    }
}

impl Fingerprint for str {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl Fingerprint for String {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_str(self);
    }
}

impl Persist for String {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.len()?;
        String::from_utf8(d.take(n)?.to_vec()).map_err(|_| "invalid UTF-8".to_string())
    }
}

/// A digest stands for its value in a larger key.
impl Fingerprint for Fp {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write(&self.to_le_bytes());
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fp_hash(&self, h: &mut FpHasher) {
        (**self).fp_hash(h);
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_len(self.len());
        for item in self {
            item.fp_hash(h);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.as_slice().fp_hash(h);
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let n = d.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fp_hash(&self, h: &mut FpHasher) {
        match self {
            None => h.write_u8(0),
            Some(v) => {
                h.write_u8(1);
                v.fp_hash(h);
            }
        }
    }
}

impl<T: Persist> Persist for Option<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            v => Err(format!("invalid option tag {v}")),
        }
    }
}

impl<A: Fingerprint, B: Fingerprint> Fingerprint for (A, B) {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.0.fp_hash(h);
        self.1.fp_hash(h);
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Fingerprint, B: Fingerprint, C: Fingerprint> Fingerprint for (A, B, C) {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.0.fp_hash(h);
        self.1.fp_hash(h);
        self.2.fp_hash(h);
    }
}

impl<A: Fingerprint, B: Fingerprint, C: Fingerprint, D: Fingerprint> Fingerprint for (A, B, C, D) {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.0.fp_hash(h);
        self.1.fp_hash(h);
        self.2.fp_hash(h);
        self.3.fp_hash(h);
    }
}

impl<A: Persist, B: Persist, C: Persist, D: Persist> Persist for (A, B, C, D) {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?, D::decode(d)?))
    }
}

impl Fingerprint for Point {
    #[inline]
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_i64(self.x);
        h.write_i64(self.y);
    }
}

impl Persist for Point {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Point::new(d.i64()?, d.i64()?))
    }
}

impl Fingerprint for Vector {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_i64(self.x);
        h.write_i64(self.y);
    }
}

impl Fingerprint for Rect {
    #[inline]
    fn fp_hash(&self, h: &mut FpHasher) {
        self.min().fp_hash(h);
        self.max().fp_hash(h);
    }
}

impl Persist for Rect {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let min = Point::decode(d)?;
        let max = Point::decode(d)?;
        Rect::new(min, max).map_err(|err| format!("invalid rect: {err}"))
    }
}

impl Fingerprint for Orientation {
    fn fp_hash(&self, h: &mut FpHasher) {
        let idx = Orientation::ALL
            .iter()
            .position(|o| o == self)
            .expect("ALL lists every orientation") as u8;
        h.write_u8(idx);
    }
}

impl Persist for Orientation {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let idx = d.u8()? as usize;
        Orientation::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| format!("invalid orientation index {idx}"))
    }
}

persist!(Transform {
    orientation,
    offset
});

impl Fingerprint for Polygon {
    fn fp_hash(&self, h: &mut FpHasher) {
        self.vertices().fp_hash(h);
    }
}

impl Persist for Polygon {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let vertices = Vec::<Point>::decode(d)?;
        Polygon::new(vertices).map_err(|err| format!("invalid polygon: {err}"))
    }
}

impl Fingerprint for Path {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_i64(self.width());
        self.points().fp_hash(h);
    }
}

impl Persist for Path {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let width = d.i64()?;
        let points = Vec::<Point>::decode(d)?;
        Path::new(width, points).map_err(|err| format!("invalid path: {err}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// MurmurHash3 x64_128 under another seed: only the SMHasher
    /// verification below asks for one.
    fn seeded(seed: u32) -> FpHasher {
        FpHasher {
            h1: seed.into(),
            h2: seed.into(),
            ..FpHasher::new()
        }
    }

    fn digest(bytes: &[u8]) -> Fp {
        let mut h = FpHasher::new();
        h.write(bytes);
        h.finish()
    }

    #[test]
    fn digest_is_stable_across_runs() {
        // The empty input hashes to zero under seed 0; "a" is the
        // reference implementation's digest, h2 then h1 in hex. Pinning
        // both guards the persisted cache format against accidental
        // algorithm changes.
        assert_eq!(digest(b"").raw(), 0);
        assert_eq!(digest(b"a").to_hex(), "e6b53a48510e895a85555565f6597889");
        assert_eq!(
            digest(b"The quick brown fox jumps over the lazy dog").to_le_bytes(),
            [
                0x6c, 0x1b, 0x07, 0xbc, 0x7b, 0xbc, 0x4b, 0xe3, 0x47, 0x93, 0x9a, 0xc4, 0xa9, 0x3c,
                0x43, 0x7a
            ]
        );
    }

    /// SMHasher's check of MurmurHash3 x64_128: the keys `[0, 1, .., i)`
    /// for `i` in `0..256`, each under seed `256 - i`, their digests
    /// concatenated and hashed under seed 0; the first four bytes of
    /// that, little-endian, are the published `0x6384BA69`.
    #[test]
    fn smhasher_verification_value() {
        let key: Vec<u8> = (0..=255).collect();
        let mut all = FpHasher::new();
        for i in 0..256 {
            let mut h = seeded(256 - i as u32);
            h.write(&key[..i]);
            all.write(&h.finish().to_le_bytes());
        }
        assert_eq!(all.finish().raw() as u32, 0x6384_ba69);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The digest is of the concatenated bytes, however `write` and
        /// the fixed-width writes split them.
        #[test]
        fn splitting_a_stream_never_moves_its_digest(
            bytes in prop::collection::vec(0u8..=255, 0..200),
            ops in prop::collection::vec((0u8..6, 0usize..40), 0..40),
        ) {
            let mut h = FpHasher::new();
            let mut rest = bytes.as_slice();
            for (kind, n) in ops {
                let width = [1, 4, 8, 8, 8, n][usize::from(kind)];
                if width > rest.len() {
                    break;
                }
                let (head, tail) = rest.split_at(width);
                let mut word = [0u8; 8];
                word[..width.min(8)].copy_from_slice(&head[..width.min(8)]);
                match kind {
                    0 => h.write_u8(head[0]),
                    1 => h.write_u32(u32::from_le_bytes(head.try_into().unwrap())),
                    2 => h.write_u64(u64::from_le_bytes(word)),
                    3 => h.write_i64(i64::from_le_bytes(word)),
                    4 => h.write_len(u64::from_le_bytes(word) as usize),
                    _ => h.write(head),
                }
                rest = tail;
            }
            h.write(rest);
            prop_assert_eq!(h.finish(), digest(&bytes));
        }
    }

    #[test]
    fn every_single_bit_flip_moves_the_digest() {
        for len in 1..=64usize {
            let input: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let mut seen = std::collections::HashSet::from([digest(&input)]);
            for bit in 0..len * 8 {
                let mut flipped = input.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert!(seen.insert(digest(&flipped)), "len {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn buffering_sink_keeps_the_stream_it_would_have_hashed() {
        let value = (
            Rect::new(Point::new(-3, 2), Point::new(7, 9)).unwrap(),
            "name",
        );
        let mut kept = FpHasher::buffer();
        value.fp_hash(&mut kept);
        let bytes = kept.into_bytes();
        assert_eq!(bytes.len(), 4 * 8 + 8 + 4); // four coordinates, a length, "name"
        let mut h = FpHasher::new();
        h.write(&bytes);
        assert_eq!(h.finish(), value.fingerprint());
        assert!(FpHasher::new().into_bytes().is_empty());
    }

    #[test]
    fn length_prefix_separates_concatenations() {
        let a = vec!["ab".to_string(), "c".to_string()];
        let b = vec!["a".to_string(), "bc".to_string()];
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn option_tags_separate_none_from_zero() {
        let none: Option<u8> = None;
        let zero: Option<u8> = Some(0);
        assert_ne!(none.fingerprint(), zero.fingerprint());
    }

    #[test]
    fn geometry_round_trips() {
        let r = Rect::new(Point::new(-3, 2), Point::new(7, 9)).unwrap();
        assert_eq!(r.fingerprint(), r.fingerprint());
        let t1 = Transform::new(Orientation::R90, Point::new(1, 2));
        let t2 = Transform::new(Orientation::R270, Point::new(1, 2));
        assert_ne!(t1.fingerprint(), t2.fingerprint());
        let w = Path::new(2, vec![Point::new(0, 0), Point::new(4, 0)]).unwrap();
        let w2 = Path::new(3, vec![Point::new(0, 0), Point::new(4, 0)]).unwrap();
        assert_ne!(w.fingerprint(), w2.fingerprint());
    }

    #[test]
    fn fp_bytes_round_trip() {
        let mut h = FpHasher::new();
        h.write_str("roundtrip");
        let fp = h.finish();
        assert_eq!(Fp::from_le_bytes(fp.to_le_bytes()), fp);
        assert_eq!(Fp::from_raw(fp.raw()), fp);
        assert_eq!(fp.to_hex().len(), 32);
        assert_eq!(format!("{fp}"), fp.to_hex());
    }
}
