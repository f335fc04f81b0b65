//! The binary codec for cache payloads: the fingerprint stream, kept.
//!
//! The workspace has no serialization dependency, and the cache format
//! must stay stable across builds anyway. A persisted type describes its
//! canonical byte form **once**, as its [`Fingerprint::fp_hash`]:
//! [`Persist::encode`] runs that traversal into a byte buffer instead of
//! into the hash, so a value cannot be stored under bytes it was not
//! hashed by, and the only thing a type adds to be cacheable is
//! [`Persist::decode`]. All integers are little-endian; variable-length
//! data carries a length prefix. Decoding is **total**: any malformed
//! input yields `Err`, never a panic, so a corrupted cache entry degrades
//! to a recompute.

use silc_geom::{Fingerprint, FpHasher, Orientation, Path, Point, Polygon, Rect, Transform};

/// Encoder: the buffering form of the fingerprint sink.
#[derive(Debug)]
pub struct Enc {
    sink: FpHasher,
}

impl Default for Enc {
    fn default() -> Enc {
        Enc::new()
    }
}

impl Enc {
    /// A fresh empty encoder.
    pub fn new() -> Enc {
        Enc {
            sink: FpHasher::buffer(),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink.into_bytes()
    }
}

/// Decoder: reads fields back in the order they were encoded.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

/// Decoding failure — the entry is malformed or truncated.
pub type DecodeError = String;

impl<'a> Dec<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Dec<'a> {
        Dec { data, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.data.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| format!("truncated: need {n} bytes at offset {}", self.pos))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length, bounds-checked against the remaining input so a
    /// corrupted prefix cannot trigger a huge allocation.
    #[allow(clippy::len_without_is_empty)] // reads a length field; not a container
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        if v > self.data.len() as u64 {
            return Err(format!("length {v} exceeds entry size"));
        }
        Ok(v as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8".to_string())
    }
}

/// Types that can round-trip through the persistent cache.
///
/// `decode(encode(x)) == x` must hold for every value the pipeline
/// produces, and `decode` must reject (not panic on) arbitrary bytes.
pub trait Persist: Fingerprint + Sized {
    /// Appends this value to `e`: its fingerprint stream, byte for byte.
    fn encode(&self, e: &mut Enc) {
        self.fp_hash(&mut e.sink);
    }
    /// Reads a value back.
    ///
    /// # Errors
    ///
    /// Any malformed or truncated input.
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError>;
}

impl Persist for u64 {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.u64()
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

impl Persist for String {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        d.str()
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

impl<T: Persist> Persist for Option<T> {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        match d.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            v => Err(format!("invalid option tag {v}")),
        }
    }
}

impl<A: Persist, B: Persist> Persist for (A, B) {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl Persist for Point {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Point::new(d.i64()?, d.i64()?))
    }
}

impl Persist for Rect {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let min = Point::decode(d)?;
        let max = Point::decode(d)?;
        Rect::new(min, max).map_err(|err| format!("invalid rect: {err}"))
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

impl Persist for Transform {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        Ok(Transform {
            orientation: Orientation::decode(d)?,
            offset: Point::decode(d)?,
        })
    }
}

impl Persist for Polygon {
    fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let vertices = Vec::<Point>::decode(d)?;
        Polygon::new(vertices).map_err(|err| format!("invalid polygon: {err}"))
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

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: &T) {
        let mut e = Enc::new();
        v.encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(&T::decode(&mut d).unwrap(), v);
        assert!(d.is_done());
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(&42u64);
        round_trip(&true);
        round_trip(&"héllo".to_string());
        round_trip(&vec!["a".to_string(), String::new()]);
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&("k".to_string(), 9u64));
    }

    #[test]
    fn geometry_round_trips() {
        round_trip(&Point::new(-5, 9));
        round_trip(&Rect::new(Point::new(-1, -2), Point::new(3, 4)).unwrap());
        for o in Orientation::ALL {
            round_trip(&o);
        }
        round_trip(&Transform::new(Orientation::R90, Point::new(10, -10)));
        round_trip(
            &Polygon::new(vec![Point::new(0, 0), Point::new(4, 0), Point::new(4, 4)]).unwrap(),
        );
        round_trip(&Path::new(2, vec![Point::new(0, 0), Point::new(8, 0)]).unwrap());
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Enc::new();
        "hello".to_string().encode(&mut e);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            assert!(String::decode(&mut Dec::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn absurd_length_rejected_without_allocating() {
        let mut e = Enc::new();
        u64::MAX.encode(&mut e);
        let bytes = e.into_bytes();
        assert!(Vec::<u64>::decode(&mut Dec::new(&bytes)).is_err());
        assert!(String::decode(&mut Dec::new(&bytes)).is_err());
    }

    #[test]
    fn invalid_tags_rejected() {
        assert!(bool::decode(&mut Dec::new(&[7])).is_err());
        assert!(Option::<u64>::decode(&mut Dec::new(&[9])).is_err());
        assert!(Orientation::decode(&mut Dec::new(&[200])).is_err());
    }
}
