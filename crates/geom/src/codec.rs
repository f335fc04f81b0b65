//! The persistent cache's binary codec — a value's fingerprint stream,
//! read back.
//!
//! The workspace has no serialization dependency, and the cache format
//! must stay stable across builds anyway, so a cached type's canonical
//! byte form **is** its [`Fingerprint::fp_hash`] stream:
//! [`Persist::encode`] runs that traversal into a byte buffer instead of
//! into the hash, and a value cannot be stored under bytes it was not
//! hashed by. All integers are little-endian; variable-length data
//! carries a length prefix. What a type adds is [`Persist::decode`],
//! written in the crate that owns the type, next to its `fp_hash`. For a
//! plain record, [`persist!`](crate::persist) writes both from one field
//! list. Decoding is **total**: any malformed input yields `Err`, never a
//! panic, so a corrupted cache entry degrades to a recompute.

use crate::{Fingerprint, FpHasher};

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

    #[inline]
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
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
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("took 4 bytes"),
        ))
    }

    /// Reads a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    /// Reads an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("took 8 bytes"),
        ))
    }

    /// Reads a length, bounds-checked against the remaining input so a
    /// corrupted prefix cannot trigger a huge allocation.
    #[allow(clippy::len_without_is_empty)] // reads a length field; not a container
    #[inline]
    pub fn len(&mut self) -> Result<usize, DecodeError> {
        let v = self.u64()?;
        if v > self.data.len() as u64 {
            return Err(format!("length {v} exceeds entry size"));
        }
        Ok(v as usize)
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

/// Both halves of a plain record's byte form from one list of its
/// fields: [`Fingerprint`] hashes each field in list order, and
/// [`Persist::decode`] reads them back in the same order into a struct
/// literal, so the compiler checks that the list names every field.
///
/// ```
/// use silc_geom::{persist, Dec, Enc, Persist, Point};
///
/// #[derive(Debug, PartialEq)]
/// struct Pin {
///     name: String,
///     at: Point,
/// }
/// persist!(Pin { name, at });
///
/// let pin = Pin { name: "q".into(), at: Point::new(3, -4) };
/// let mut e = Enc::new();
/// pin.encode(&mut e);
/// let bytes = e.into_bytes();
/// assert_eq!(Pin::decode(&mut Dec::new(&bytes)).unwrap(), pin);
/// ```
///
/// Types with variant tags, or whose decoder validates through a
/// constructor, write the two halves by hand.
#[macro_export]
macro_rules! persist {
    ($record:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Fingerprint for $record {
            fn fp_hash(&self, h: &mut $crate::FpHasher) {
                $($crate::Fingerprint::fp_hash(&self.$field, h);)+
            }
        }

        impl $crate::Persist for $record {
            fn decode(
                d: &mut $crate::Dec<'_>,
            ) -> ::core::result::Result<Self, $crate::DecodeError> {
                ::core::result::Result::Ok($record {
                    $($field: $crate::Persist::decode(d)?,)+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Orientation, Path, Point, Polygon, Rect, Transform};

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
        round_trip(&7u32);
        round_trip(&usize::MAX);
        round_trip(&true);
        round_trip(&"héllo".to_string());
        round_trip(&vec!["a".to_string(), String::new()]);
        round_trip(&Some(7u64));
        round_trip(&Option::<u64>::None);
        round_trip(&("k".to_string(), 9u64));
        round_trip(&(1u32, 2u32, 3u32, u32::MAX));
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
            &Polygon::new(vec![
                Point::new(0, 0),
                Point::new(4, 0),
                Point::new(4, 4),
                Point::new(2, 4),
                Point::new(2, 2),
                Point::new(0, 2),
            ])
            .unwrap(),
        );
        round_trip(&Path::new(2, vec![Point::new(0, 0), Point::new(8, 0)]).unwrap());
    }

    #[test]
    fn slanted_geometry_is_undecodable() {
        // The bytes a wire and a polygon with a slanted edge would be
        // stored as: such an entry is refused, so it is recomputed.
        let (a, b, c) = (Point::new(0, 0), Point::new(4, 0), Point::new(0, 4));
        let mut h = crate::FpHasher::buffer();
        2i64.fp_hash(&mut h);
        vec![b, c].fp_hash(&mut h);
        let err = Path::decode(&mut Dec::new(&h.into_bytes())).unwrap_err();
        assert_eq!(
            err,
            "invalid path: edge (4, 0) -> (0, 4) is neither horizontal nor vertical"
        );
        let mut h = crate::FpHasher::buffer();
        vec![a, b, c].fp_hash(&mut h);
        let err = Polygon::decode(&mut Dec::new(&h.into_bytes())).unwrap_err();
        assert_eq!(
            err,
            "invalid polygon: edge (4, 0) -> (0, 4) is neither horizontal nor vertical"
        );
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
