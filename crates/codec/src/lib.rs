//! The workspace's binary snapshot codec: trait-driven encoding and decoding
//! of the values the evaluation caches persist. (The snapshot layer in
//! `impact_core` lays out the values that cache entries share — design
//! points and schedule summaries — itself, from these parts.)
//!
//! The format is deliberately boring — SBOR-style trait derivation written by
//! hand — so any crate can implement it for its own types without a proc
//! macro or a registry dependency:
//!
//! * fixed-width little-endian integers; floats as their exact IEEE-754 bit
//!   pattern (`-0.0 != 0.0`, NaN payloads preserved),
//! * length-prefixed sequences and strings (`u64` length, then the items),
//! * an explicit one-byte *version tag* in front of every composite type
//!   ([`Encoder::put_tag`] / [`Decoder::expect_tag`]). A type that changes
//!   its wire layout bumps its tag, so snapshots written by an older build
//!   fail decoding with [`DecodeError::BadTag`] instead of being
//!   misinterpreted — stale data degrades to a cache miss, never a wrong hit.
//!
//! Encoding is total and deterministic: the same value always produces the
//! same bytes (containers with unordered iteration must be sorted by their
//! encoders — see the snapshot layer in `impact_core`). Decoding is the
//! fallible direction; every error is represented in [`DecodeError`] and no
//! input can cause a panic or an oversized allocation.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Errors reported while decoding.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The input ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// A composite type's version tag did not match the running build's.
    BadTag {
        /// The tag this build writes and expects.
        expected: u8,
        /// The tag found in the input.
        found: u8,
    },
    /// A value was structurally well-formed but semantically impossible
    /// (unknown enum discriminant, index overflow, …).
    Invalid(&'static str),
    /// A length prefix exceeds what the remaining input could possibly hold.
    LengthOverflow {
        /// The claimed element count.
        len: u64,
    },
    /// The value decoded cleanly but bytes were left over.
    TrailingBytes {
        /// Bytes left after the value.
        remaining: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "input truncated: needed {needed} bytes, {remaining} left"
                )
            }
            DecodeError::BadTag { expected, found } => {
                write!(
                    f,
                    "version tag mismatch: expected {expected:#04x}, found {found:#04x}"
                )
            }
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
            DecodeError::LengthOverflow { len } => {
                write!(f, "length prefix {len} exceeds the remaining input")
            }
            DecodeError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after the value")
            }
        }
    }
}

impl Error for DecodeError {}

/// An append-only byte sink with fixed-width little-endian primitives.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty encoder that can take `capacity` bytes without
    /// reallocating.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Discards every byte written after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.buf.push(value);
    }

    /// Writes a composite type's version tag (one byte; see the module docs).
    pub fn put_tag(&mut self, tag: u8) {
        self.put_u8(tag);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian `u128`.
    pub fn put_u128(&mut self, value: u128) {
        self.buf.extend_from_slice(&value.to_le_bytes());
    }

    /// Writes a little-endian two's-complement `i64`.
    pub fn put_i64(&mut self, value: i64) {
        self.put_u64(value as u64);
    }

    /// Writes the exact bit pattern of a float.
    pub fn put_f64(&mut self, value: f64) {
        self.put_u64(value.to_bits());
    }

    /// Writes a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, value: bool) {
        self.put_u8(u8::from(value));
    }

    /// Writes a `usize` as a `u64` (lossless on every supported platform).
    pub fn put_usize(&mut self, value: usize) {
        self.put_u64(value as u64);
    }

    /// Writes raw bytes with no length prefix (the caller knows the length).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.put_raw(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, value: &str) {
        self.put_bytes(value.as_bytes());
    }
}

/// A cursor over an input slice with fixed-width little-endian primitives.
#[derive(Clone, Copy, Debug)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over the input.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Whether the whole input was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails with [`DecodeError::TrailingBytes`] unless the input was fully
    /// consumed.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    /// Takes `n` raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take_raw(1)?[0])
    }

    /// Takes a composite type's version tag and checks it against the tag
    /// this build writes.
    pub fn expect_tag(&mut self, expected: u8) -> Result<(), DecodeError> {
        let found = self.take_u8()?;
        if found == expected {
            Ok(())
        } else {
            Err(DecodeError::BadTag { expected, found })
        }
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        let raw = self.take_raw(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        let raw = self.take_raw(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Takes a little-endian `u128`.
    pub fn take_u128(&mut self) -> Result<u128, DecodeError> {
        let raw = self.take_raw(16)?;
        Ok(u128::from_le_bytes(raw.try_into().expect("16 bytes")))
    }

    /// Takes a little-endian two's-complement `i64`.
    pub fn take_i64(&mut self) -> Result<i64, DecodeError> {
        Ok(self.take_u64()? as i64)
    }

    /// Takes a float by its exact bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Takes a `bool`; any byte other than 0 or 1 is invalid.
    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Invalid("bool byte is neither 0 nor 1")),
        }
    }

    /// Takes a `usize` encoded as a `u64`.
    pub fn take_usize(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| DecodeError::Invalid("usize value exceeds the platform width"))
    }

    /// Takes a sequence length prefix, bounds-checked against the remaining
    /// input so corrupt prefixes cannot trigger huge allocations: every
    /// element of every sequence this codec writes occupies at least
    /// `min_element_bytes` bytes.
    pub fn take_len(&mut self, min_element_bytes: usize) -> Result<usize, DecodeError> {
        let len = self.take_u64()?;
        let bound = (self.remaining() / min_element_bytes.max(1)) as u64;
        if len > bound {
            return Err(DecodeError::LengthOverflow { len });
        }
        Ok(len as usize)
    }

    /// Takes a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_len(1)?;
        self.take_raw(len)
    }

    /// Takes a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|_| DecodeError::Invalid("string is not valid UTF-8"))
    }
}

/// A value that can write itself to an [`Encoder`].
pub trait Encode {
    /// Appends this value's encoding.
    fn encode(&self, w: &mut Encoder);
}

/// A value that can read itself back from a [`Decoder`].
///
/// `decode ∘ encode` must be the identity for every value, and decoding must
/// reject (never misinterpret) the encodings of other builds' layouts — see
/// the version-tag convention in the module docs.
pub trait Decode: Sized {
    /// Reads one value.
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError>;
}

/// Encodes one value into a fresh byte vector.
pub fn encode_to_vec<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut w = Encoder::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes one value from a slice, requiring the slice to be fully consumed.
pub fn decode_from_slice<T: Decode>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut r = Decoder::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

macro_rules! impl_primitive {
    ($ty:ty, $put:ident, $take:ident) => {
        impl Encode for $ty {
            fn encode(&self, w: &mut Encoder) {
                w.$put(*self);
            }
        }

        impl Decode for $ty {
            fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                r.$take()
            }
        }
    };
}

impl_primitive!(u8, put_u8, take_u8);
impl_primitive!(u32, put_u32, take_u32);
impl_primitive!(u64, put_u64, take_u64);
impl_primitive!(u128, put_u128, take_u128);
impl_primitive!(i64, put_i64, take_i64);
impl_primitive!(f64, put_f64, take_f64);
impl_primitive!(bool, put_bool, take_bool);
impl_primitive!(usize, put_usize, take_usize);

impl Encode for str {
    fn encode(&self, w: &mut Encoder) {
        w.put_str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Encoder) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(r.take_str()?.to_string())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut Encoder) {
        match self {
            None => w.put_u8(0),
            Some(value) => {
                w.put_u8(1);
                value.encode(w);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(DecodeError::Invalid("option byte is neither 0 nor 1")),
        }
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Encoder) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Encoder) {
        self.as_slice().encode(w);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        // Every encoded element is at least one byte, so the bound in
        // `take_len` caps the pre-allocation at the remaining input size.
        let len = r.take_len(1)?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(T::decode(r)?);
        }
        Ok(items)
    }
}

impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, w: &mut Encoder) {
        T::encode(self, w);
    }
}

impl<T: Decode> Decode for Arc<T> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::new(T::decode(r)?))
    }
}

/// A shared slice has the wire layout of a `Vec` (length, then elements);
/// the decoded elements move into one shared allocation.
impl<T: Decode> Decode for Arc<[T]> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl Decode for Arc<str> {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(Arc::from(r.take_str()?))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut Encoder) {
        self.0.encode(w);
        self.1.encode(w);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = encode_to_vec(&value);
        let back: T = decode_from_slice(&bytes).expect("decodes");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-1i64);
        roundtrip(i64::MIN);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX);
        roundtrip(String::from("gcd"));
        roundtrip(String::new());
    }

    #[test]
    fn floats_round_trip_by_bit_pattern() {
        for value in [
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let bytes = encode_to_vec(&value);
            let back: f64 = decode_from_slice(&bytes).unwrap();
            assert_eq!(back.to_bits(), value.to_bits());
        }
        let nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let back: f64 = decode_from_slice(&encode_to_vec(&nan)).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![1u64, 2, 3]);
        roundtrip(vec![Some(4.5f64), None]);
        roundtrip(Option::<String>::None);
        roundtrip(Some(vec![1u128, 2]));
        roundtrip((42u64, String::from("pair")));
        let arc = Arc::new(vec![7u64]);
        let back: Arc<Vec<u64>> = decode_from_slice(&encode_to_vec(&arc)).unwrap();
        assert_eq!(*back, *arc);
        let label: Arc<str> = Arc::from("loop0");
        let back: Arc<str> = decode_from_slice(&encode_to_vec(&*label)).unwrap();
        assert_eq!(&*back, &*label);
        // A shared slice writes the same bytes as the `Vec` it came from.
        let shared: Arc<[u64]> = Arc::from(vec![3u64, 1, 4]);
        assert_eq!(encode_to_vec(&shared), encode_to_vec(&vec![3u64, 1, 4]));
        let back: Arc<[u64]> = decode_from_slice(&encode_to_vec(&shared)).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    fn truncated_input_reports_eof() {
        let bytes = encode_to_vec(&12345u64);
        for cut in 0..bytes.len() {
            let err = decode_from_slice::<u64>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, DecodeError::UnexpectedEof { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_vec(&1u8);
        bytes.push(0);
        assert!(matches!(
            decode_from_slice::<u8>(&bytes),
            Err(DecodeError::TrailingBytes { remaining: 1 })
        ));
    }

    #[test]
    fn length_prefixes_are_bounds_checked() {
        // A corrupt length prefix claiming 2^60 elements must fail fast
        // instead of attempting the allocation.
        let mut w = Encoder::new();
        w.put_u64(1 << 60);
        let err = decode_from_slice::<Vec<u64>>(w.as_bytes()).unwrap_err();
        assert!(matches!(err, DecodeError::LengthOverflow { .. }));
    }

    #[test]
    fn version_tags_gate_decoding() {
        let mut w = Encoder::new();
        w.put_tag(3);
        let mut r = Decoder::new(w.as_bytes());
        assert_eq!(
            r.expect_tag(4),
            Err(DecodeError::BadTag {
                expected: 4,
                found: 3
            })
        );
        let mut r = Decoder::new(w.as_bytes());
        assert!(r.expect_tag(3).is_ok());
        assert!(r.finish().is_ok());
    }

    #[test]
    fn invalid_bool_and_option_bytes_are_rejected() {
        assert!(matches!(
            decode_from_slice::<bool>(&[2]),
            Err(DecodeError::Invalid(_))
        ));
        assert!(matches!(
            decode_from_slice::<Option<u8>>(&[9]),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn errors_render_a_message() {
        for err in [
            DecodeError::UnexpectedEof {
                needed: 8,
                remaining: 3,
            },
            DecodeError::BadTag {
                expected: 1,
                found: 2,
            },
            DecodeError::Invalid("nope"),
            DecodeError::LengthOverflow { len: 99 },
            DecodeError::TrailingBytes { remaining: 4 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
