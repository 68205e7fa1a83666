//! Packed encoding for the bulk integer vectors of segment-start stores.
//!
//! A warm hierarchy image carries four per-slot vectors (tens of
//! thousands of entries each) and a mutating generator's checkpoint
//! carries its whole traversal order. Written as decimal JSON arrays,
//! every element becomes a [`Value`] node on the way out and again on
//! the way back in. This module writes such a vector as one JSON string
//! instead: its elements' little-endian bytes, concatenated, in standard
//! padded base64 (RFC 4648 §4). Encoding and decoding are single linear
//! passes with no per-element allocation.
//!
//! Decoding is strict. A length that is not a multiple of four, a byte
//! outside the alphabet (padding included, anywhere but the last one or
//! two places) and a byte count that does not split into whole elements
//! are each a typed [`PackedError`], so a damaged store is refused
//! rather than restored with shifted contents.

use std::fmt;

use serde::{DeError, Value};

/// A fixed-width integer that packs as its little-endian bytes.
pub trait Packed: Copy {
    /// Bytes per element.
    const WIDTH: usize;
    /// Appends the element's little-endian bytes to `out`.
    fn put(self, out: &mut Vec<u8>);
    /// Reads one element from exactly [`Self::WIDTH`] little-endian bytes.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! impl_packed {
    ($($t:ty),*) => {$(
        impl Packed for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes.try_into().expect("one element's bytes"))
            }
        }
    )*};
}

impl_packed!(u8, u32, u64);

/// Why a packed string did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackedError {
    /// The text's length is not a multiple of four.
    Length(usize),
    /// A byte outside the base64 alphabet at byte offset `at`; padding
    /// counts as outside it anywhere but the last one or two places.
    Alphabet {
        /// Byte offset in the text.
        at: usize,
        /// The offending byte.
        byte: u8,
    },
    /// The decoded byte count is not a multiple of the element width.
    Width {
        /// Decoded bytes.
        bytes: usize,
        /// Bytes per element.
        width: usize,
    },
}

impl fmt::Display for PackedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackedError::Length(len) => {
                write!(f, "packed text of {len} bytes is not a whole number of base64 quads")
            }
            PackedError::Alphabet { at, byte } => {
                write!(f, "byte {byte:#04x} at offset {at} is not base64")
            }
            PackedError::Width { bytes, width } => {
                write!(f, "{bytes} packed bytes do not split into {width}-byte elements")
            }
        }
    }
}

impl std::error::Error for PackedError {}

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks bytes outside [`ALPHABET`] in [`DECODE`].
const INVALID: u8 = 0xff;

/// Base64 digit value by byte, [`INVALID`] outside the alphabet.
const DECODE: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        table[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Encodes `values` as padded base64 of their little-endian bytes.
pub fn encode<T: Packed>(values: &[T]) -> String {
    let mut bytes = Vec::with_capacity(values.len() * T::WIDTH);
    for &v in values {
        v.put(&mut bytes);
    }
    let mut out = Vec::with_capacity(bytes.len().div_ceil(3) * 4);
    let digit = |bits: u32| ALPHABET[(bits & 63) as usize];
    let mut chunks = bytes.chunks_exact(3);
    for c in &mut chunks {
        let n = u32::from(c[0]) << 16 | u32::from(c[1]) << 8 | u32::from(c[2]);
        out.extend_from_slice(&[digit(n >> 18), digit(n >> 12), digit(n >> 6), digit(n)]);
    }
    match *chunks.remainder() {
        [a] => {
            let n = u32::from(a) << 16;
            out.extend_from_slice(&[digit(n >> 18), digit(n >> 12), b'=', b'=']);
        }
        [a, b] => {
            let n = u32::from(a) << 16 | u32::from(b) << 8;
            out.extend_from_slice(&[digit(n >> 18), digit(n >> 12), digit(n >> 6), b'=']);
        }
        _ => {}
    }
    String::from_utf8(out).expect("base64 is ASCII")
}

/// Decodes text written by [`encode`].
///
/// # Errors
///
/// [`PackedError::Length`] when the text is not whole quads,
/// [`PackedError::Alphabet`] for a byte outside the alphabet or
/// misplaced padding, and [`PackedError::Width`] when the bytes do not
/// split into whole elements.
pub fn decode<T: Packed>(text: &str) -> Result<Vec<T>, PackedError> {
    let text = text.as_bytes();
    if text.len() % 4 != 0 {
        return Err(PackedError::Length(text.len()));
    }
    // Up to two trailing `=` pad the last quad; everywhere else only
    // alphabet bytes may appear, so `=` there fails as one.
    let pad = text.iter().rev().take(2).take_while(|&&b| b == b'=').count();
    let body = &text[..text.len() - pad];
    // The digits of `group` (a quad, or the 2–3 digits before the
    // padding), most significant first, starting at offset `at`.
    let digits = |at: usize, group: &[u8]| -> Result<u32, PackedError> {
        let mut n = 0;
        for (i, &byte) in group.iter().enumerate() {
            match DECODE[usize::from(byte)] {
                INVALID => return Err(PackedError::Alphabet { at: at + i, byte }),
                d => n |= u32::from(d) << (18 - 6 * i),
            }
        }
        Ok(n)
    };
    let mut bytes = Vec::with_capacity(text.len() / 4 * 3);
    let mut quads = body.chunks_exact(4);
    for (q, quad) in (&mut quads).enumerate() {
        let n = digits(4 * q, quad)?;
        bytes.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    let tail = quads.remainder();
    if !tail.is_empty() {
        // Two digits carry one byte, three carry two.
        let n = digits(body.len() - tail.len(), tail)?;
        bytes.extend_from_slice(&[(n >> 16) as u8, (n >> 8) as u8][..tail.len() - 1]);
    }
    if bytes.len() % T::WIDTH != 0 {
        return Err(PackedError::Width { bytes: bytes.len(), width: T::WIDTH });
    }
    Ok(bytes.chunks_exact(T::WIDTH).map(T::get).collect())
}

/// `values` as a packed JSON string value.
pub fn to_value<T: Packed>(values: &[T]) -> Value {
    Value::Str(encode(values))
}

/// Decodes the packed string field `name` of the map `body`
/// (deserialization helper; `ty` names the containing type in errors).
///
/// # Errors
///
/// A [`DeError`] when the field is missing, not a string, or not a
/// valid packed vector of `T`.
pub fn field<T: Packed>(body: &Value, name: &str, ty: &str) -> Result<Vec<T>, DeError> {
    let v = body.get(name).ok_or_else(|| DeError(format!("missing field `{name}` in {ty}")))?;
    let text =
        v.as_str().ok_or_else(|| DeError::expected("packed string", &format!("{ty}.{name}")))?;
    decode(text).map_err(|e| DeError(format!("{ty}.{name}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_and_tail_round_trips() {
        for n in 0..9u64 {
            let wide: Vec<u64> = (0..n).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
            assert_eq!(decode::<u64>(&encode(&wide)), Ok(wide.clone()));
            let mid: Vec<u32> = wide.iter().map(|&v| (v >> 17) as u32).collect();
            assert_eq!(decode::<u32>(&encode(&mid)), Ok(mid));
            let narrow: Vec<u8> = wide.iter().map(|&v| (v >> 40) as u8).collect();
            assert_eq!(decode::<u8>(&encode(&narrow)), Ok(narrow));
        }
    }

    #[test]
    fn matches_the_standard_alphabet_and_padding() {
        assert_eq!(encode::<u8>(b"Man"), "TWFu");
        assert_eq!(encode::<u8>(b"Ma"), "TWE=");
        assert_eq!(encode::<u8>(b"M"), "TQ==");
        assert_eq!(encode::<u8>(&[0xfb, 0xff]), "+/8=");
        assert_eq!(encode::<u32>(&[1]), "AQAAAA==", "little-endian bytes");
        assert_eq!(encode::<u64>(&[]), "");
    }

    #[test]
    fn rejects_a_bad_length() {
        assert_eq!(decode::<u8>("TWF"), Err(PackedError::Length(3)));
        assert_eq!(decode::<u8>("TWFuT"), Err(PackedError::Length(5)));
    }

    #[test]
    fn rejects_bytes_outside_the_alphabet() {
        assert_eq!(decode::<u8>("TW-u"), Err(PackedError::Alphabet { at: 2, byte: b'-' }));
        assert_eq!(decode::<u8>("T\"Fu"), Err(PackedError::Alphabet { at: 1, byte: b'"' }));
        // Padding is only allowed in the last one or two places.
        assert_eq!(decode::<u8>("T=Fu"), Err(PackedError::Alphabet { at: 1, byte: b'=' }));
        assert_eq!(decode::<u8>("TWE=TWFu"), Err(PackedError::Alphabet { at: 3, byte: b'=' }));
        assert!(matches!(decode::<u8>("T==="), Err(PackedError::Alphabet { .. })));
        assert!(matches!(decode::<u8>("===="), Err(PackedError::Alphabet { .. })));
    }

    #[test]
    fn rejects_a_partial_element() {
        // Three bytes are not a whole u32, five are not a whole u64.
        assert_eq!(decode::<u32>("TWFu"), Err(PackedError::Width { bytes: 3, width: 4 }));
        let five = encode::<u8>(&[1, 2, 3, 4, 5]);
        assert_eq!(decode::<u64>(&five), Err(PackedError::Width { bytes: 5, width: 8 }));
        assert_eq!(decode::<u8>(&five), Ok(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn field_reports_the_containing_type() {
        let body = Value::Map(vec![("tags".into(), to_value::<u32>(&[7, 8, 9]))]);
        assert_eq!(field::<u32>(&body, "tags", "T"), Ok(vec![7, 8, 9]));
        let err = field::<u64>(&body, "tags", "T").unwrap_err();
        assert!(err.0.starts_with("T.tags:"), "{err}");
        assert!(field::<u64>(&body, "missing", "T").is_err());
        let decimal = Value::Map(vec![("tags".into(), Value::Seq(vec![Value::U64(7)]))]);
        assert!(field::<u64>(&decimal, "tags", "T").is_err(), "decimal arrays are refused");
    }
}
