//! Stable content fingerprints — the keys of the incremental engine.
//!
//! `silc-incr` memoizes every pipeline stage by the **content hash** of
//! its inputs, so the hash must be (a) stable across processes and
//! toolchain versions (it is persisted in the on-disk cache), (b) cheap,
//! and (c) collision-resistant enough that a 128-bit digest over designs
//! of at most a few million elements never collides in practice. The
//! standard-library `Hasher`s guarantee none of that, so this module
//! implements FNV-1a/128 by hand and a [`Fingerprint`] trait in the
//! spirit of `std::hash::Hash`, with explicit domain separation (length
//! prefixes and variant tags) so `["ab","c"]` and `["a","bc"]` differ.
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
use crate::{persist, Interval, Orientation, Path, Point, Polygon, Rect, Transform, Vector};
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

/// Streaming FNV-1a/128 hasher behind [`Fingerprint`].
///
/// FNV-1a is fully specified (offset basis and prime are published
/// constants), byte-order independent, and needs only `u128` arithmetic,
/// so digests are identical on every platform and toolchain.
///
/// The same sink also *keeps* the stream instead of hashing it
/// ([`FpHasher::buffer`]): the bytes a value is stored under in the
/// persistent cache are exactly the bytes its [`Fingerprint::fp_hash`]
/// feeds the hash, so the two can never drift apart.
#[derive(Debug, Clone)]
pub struct FpHasher {
    state: u128,
    /// `Some` in buffering mode: bytes are appended here, not hashed.
    kept: Option<Vec<u8>>,
}

/// FNV-1a 128-bit offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a 128-bit prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl FpHasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> FpHasher {
        FpHasher {
            state: FNV_OFFSET,
            kept: None,
        }
    }

    /// A sink that keeps every absorbed byte for [`FpHasher::into_bytes`]
    /// and pays no hashing arithmetic while doing so.
    pub fn buffer() -> FpHasher {
        FpHasher {
            state: FNV_OFFSET,
            kept: Some(Vec::new()),
        }
    }

    /// The bytes a [`FpHasher::buffer`] sink absorbed (empty for a
    /// hashing one).
    pub fn into_bytes(self) -> Vec<u8> {
        self.kept.unwrap_or_default()
    }

    /// Absorbs raw bytes (no length prefix — callers that hash
    /// variable-length data should write the length first).
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        if let Some(kept) = &mut self.kept {
            kept.extend_from_slice(bytes);
            return;
        }
        for &b in bytes {
            self.state ^= u128::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorbs a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `i64` (little-endian two's complement).
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs a `usize`, widened to 64 bits for portability.
    pub fn write_len(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs a string with a length prefix.
    pub fn write_str(&mut self, s: &str) {
        self.write_len(s.len());
        self.write(s.as_bytes());
    }

    /// The digest of everything hashed so far (a buffering sink hashes
    /// nothing).
    pub fn finish(&self) -> Fp {
        Fp(self.state)
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
/// 128-bit digest makes accidental collisions negligible).
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

impl Fingerprint for Interval {
    fn fp_hash(&self, h: &mut FpHasher) {
        h.write_i64(self.lo());
        h.write_i64(self.hi());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_across_runs() {
        // FNV-1a/128 of the empty input is the offset basis; of "a" it is
        // a published test vector. Pinning both here guards the persisted
        // cache format against accidental algorithm changes.
        assert_eq!(FpHasher::new().finish().raw(), FNV_OFFSET);
        let mut h = FpHasher::new();
        h.write(b"a");
        assert_eq!(h.finish().to_hex(), "d228cb696f1a8caf78912b704e4a8964");
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
