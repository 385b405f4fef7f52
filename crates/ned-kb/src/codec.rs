//! The byte codec of every file the KB stack writes.
//!
//! Snapshot sections ([`crate::snapshot`]), WAL records ([`crate::wal`])
//! and gold corpora (`ned_wikigen::corpus_io`) each lay their fields out by
//! hand on a [`Writer`], next to the types they store, and read them back
//! with a [`Reader`] in the same order. The encoding carries no tags or
//! field names: a value is its fields in order, with
//!
//! - unsigned integers as LEB128 varints (seven bits per byte, low group
//!   first, the high bit set on every byte but the last), and signed ones
//!   zigzag-mapped first (0, −1, 1, −2, … → 0, 1, 2, 3, …);
//! - an `f64` as its 8 little-endian IEEE-754 bytes;
//! - a string or a sequence as its varint length, then its UTF-8 bytes or
//!   its elements;
//! - an `Option` as a 0/1 tag byte, then the value if there is one;
//! - a fieldless enum as the varint declaration index of its variant.
//!
//! A [`Reader`] decodes bytes from outside the process (snapshot load and
//! WAL replay are recovery roots), so it never panics. Input that ends
//! inside a value, a varint past 64 bits, an integer too large for its
//! field, a length past the bytes left, invalid UTF-8, an unknown variant
//! or option tag and bytes left over are each a [`CodecError`]. A length is
//! checked against the bytes left before anything is reserved for it.

use std::fmt;

/// Why a [`Reader`] rejected its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ends inside a value.
    Truncated,
    /// A varint runs past ten bytes or 64 bits.
    VarintOverflow,
    /// An integer does not fit the field's type (`what`).
    OutOfRange {
        /// The field's type.
        what: &'static str,
        /// The decoded value.
        value: u64,
    },
    /// A string or sequence claims more bytes or elements than are left.
    LengthPastEnd {
        /// The decoded length.
        len: u64,
        /// The bytes left after it.
        left: usize,
    },
    /// A string is not UTF-8.
    InvalidUtf8,
    /// A variant index names no variant of the enum `what`.
    UnknownVariant {
        /// The enum.
        what: &'static str,
        /// The decoded index.
        index: u64,
    },
    /// An `Option` tag other than 0 or 1.
    BadOptionTag(u8),
    /// Bytes are left after the value.
    TrailingBytes(usize),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "the input ends inside a value"),
            CodecError::VarintOverflow => write!(f, "a varint runs past 64 bits"),
            CodecError::OutOfRange { what, value } => write!(f, "{value} does not fit a {what}"),
            CodecError::LengthPastEnd { len, left } => {
                write!(f, "length {len} runs past the {left} bytes left")
            }
            CodecError::InvalidUtf8 => write!(f, "a string is not UTF-8"),
            CodecError::UnknownVariant { what, index } => write!(f, "unknown {what} {index}"),
            CodecError::BadOptionTag(tag) => write!(f, "option tag {tag} is neither 0 nor 1"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// The bytes `write` puts on a fresh [`Writer`].
pub fn to_bytes(write: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut writer = Writer { bytes: Vec::new() };
    write(&mut writer);
    writer.bytes
}

/// Decodes all of `bytes` with `read`; a byte left over is
/// [`CodecError::TrailingBytes`].
pub fn from_bytes<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    let mut reader = Reader { bytes };
    let value = read(&mut reader)?;
    match reader.bytes.len() {
        0 => Ok(value),
        left => Err(CodecError::TrailingBytes(left)),
    }
}

/// Appends encoded values to a byte buffer ([`to_bytes`]).
#[derive(Debug)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An unsigned integer, as a LEB128 varint.
    pub fn u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.bytes.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.bytes.push(v as u8);
    }

    /// A `u32`, as a varint.
    pub fn u32(&mut self, v: u32) {
        self.u64(v.into());
    }

    /// A `usize`, as a varint.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A signed integer, zigzag-mapped to a varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// An `f64`, as its little-endian bits.
    pub fn f64(&mut self, v: f64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// A string: its byte length, then its bytes.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.bytes.extend_from_slice(v.as_bytes());
    }

    /// An `Option`: tag 0, or tag 1 and the value `write` puts.
    pub fn option<T>(&mut self, v: Option<T>, write: impl FnOnce(&mut Self, T)) {
        match v {
            None => self.bytes.push(0),
            Some(v) => {
                self.bytes.push(1);
                write(self, v);
            }
        }
    }

    /// A sequence: its length, then each item as `write` puts it.
    pub fn seq<T>(&mut self, items: &[T], mut write: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            write(self, item);
        }
    }
}

/// Reads encoded values from a byte slice, front to back ([`from_bytes`]).
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8, CodecError> {
        let (&byte, rest) = self.bytes.split_first().ok_or(CodecError::Truncated)?;
        self.bytes = rest;
        Ok(byte)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (Some(head), Some(rest)) = (self.bytes.get(..n), self.bytes.get(n..)) else {
            return Err(CodecError::Truncated);
        };
        self.bytes = rest;
        Ok(head)
    }

    /// A string or sequence length, which cannot exceed the bytes left:
    /// every element takes at least one.
    fn len(&mut self) -> Result<usize, CodecError> {
        let len = self.u64()?;
        let left = self.bytes.len();
        match usize::try_from(len) {
            Ok(n) if n <= left => Ok(n),
            _ => Err(CodecError::LengthPastEnd { len, left }),
        }
    }

    /// An unsigned integer from a LEB128 varint of at most ten bytes.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte()?;
            let group = u64::from(byte & 0x7f);
            if shift == 63 && group > 1 {
                // The tenth byte carries bit 63 only.
                return Err(CodecError::VarintOverflow);
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::VarintOverflow);
            }
        }
    }

    /// A `u32` varint.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let value = self.u64()?;
        u32::try_from(value).map_err(|_| CodecError::OutOfRange { what: "u32", value })
    }

    /// A `usize` varint.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let value = self.u64()?;
        usize::try_from(value).map_err(|_| CodecError::OutOfRange { what: "usize", value })
    }

    /// A zigzag-mapped signed varint.
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        let z = self.u64()?;
        Ok((z >> 1) as i64 ^ -((z & 1) as i64))
    }

    /// An `f64` from its little-endian bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let bits = self.take(8)?.try_into().map_err(|_| CodecError::Truncated)?;
        Ok(f64::from_le_bytes(bits))
    }

    /// A string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::InvalidUtf8)
    }

    /// A string, owned.
    pub fn string(&mut self) -> Result<String, CodecError> {
        self.str().map(str::to_owned)
    }

    /// The variant of a fieldless enum `what`, given all of them in
    /// declaration order.
    pub fn variant<T: Copy>(&mut self, what: &'static str, all: &[T]) -> Result<T, CodecError> {
        let index = self.u64()?;
        let variant = usize::try_from(index).ok().and_then(|i| all.get(i));
        variant.copied().ok_or(CodecError::UnknownVariant { what, index })
    }

    /// An `Option`, its value read with `read`.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.byte()? {
            0 => Ok(None),
            1 => read(self).map(Some),
            tag => Err(CodecError::BadOptionTag(tag)),
        }
    }

    /// A sequence, each element read with `read`.
    pub fn seq<T>(
        &mut self,
        mut read: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let len = self.len()?;
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(read(self)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;
    use ned_text::TokenKind;

    /// A varint's bytes.
    fn varint(v: u64) -> Vec<u8> {
        to_bytes(|w| w.u64(v))
    }

    #[test]
    fn primitives_have_their_documented_bytes_and_round_trip() {
        let bytes = to_bytes(|w| {
            w.u64(300);
            w.u32(u32::MAX);
            w.usize(0);
            w.i64(-3);
            w.i64(i64::MIN);
            w.f64(-0.0);
            w.str("é");
            w.option(None::<u32>, |w, v| w.u32(v));
            w.option(Some(7u32), |w, v| w.u32(v));
            w.seq(&[1u32, 128], |w, &v| w.u32(v));
        });
        let mut expected = vec![0xac, 0x02, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00, 0x05];
        expected.extend([0xff; 9]);
        expected.push(0x01);
        expected.extend((-0.0f64).to_le_bytes());
        expected.extend([2, 0xc3, 0xa9, 0, 1, 7, 2, 1, 0x80, 0x01]);
        assert_eq!(bytes, expected);

        let read = from_bytes(&bytes, |r| {
            Ok((
                (r.u64()?, r.u32()?, r.usize()?, r.i64()?, r.i64()?),
                (r.f64()?.to_bits(), r.str()?, r.option(Reader::u32)?, r.option(Reader::u32)?),
                r.seq(Reader::u32)?,
            ))
        });
        let want = (
            (300, u32::MAX, 0, -3, i64::MIN),
            ((-0.0f64).to_bits(), "é", None, Some(7)),
            vec![1, 128],
        );
        assert_eq!(read, Ok(want));
        assert_eq!(from_bytes(&varint(u64::MAX), Reader::u64), Ok(u64::MAX));
        assert_eq!(varint(u64::MAX).len(), 10);
    }

    #[test]
    fn rejects_a_varint_longer_than_ten_bytes_or_64_bits() {
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert_eq!(from_bytes(&eleven, Reader::u64), Err(CodecError::VarintOverflow));
        let mut past_bit_63 = vec![0xff; 9];
        past_bit_63.push(0x02);
        assert_eq!(from_bytes(&past_bit_63, Reader::u64), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn rejects_a_u32_field_above_u32_max() {
        let value = u64::from(u32::MAX) + 1;
        let err = from_bytes(&varint(value), Reader::u32);
        assert_eq!(err, Err(CodecError::OutOfRange { what: "u32", value }));
    }

    #[test]
    fn rejects_a_length_past_the_bytes_left_before_reserving() {
        // A length of u64::MAX elements must not reach `Vec::with_capacity`
        // (which would abort) nor a string slice.
        let huge = varint(u64::MAX);
        let err = CodecError::LengthPastEnd { len: u64::MAX, left: 0 };
        assert_eq!(from_bytes(&huge, |r| r.seq(Reader::u64)), Err(err.clone()));
        assert_eq!(from_bytes(&huge, Reader::string), Err(err));
        // Three elements claimed, two bytes left.
        let short = [3, 1, 2];
        let err = CodecError::LengthPastEnd { len: 3, left: 2 };
        assert_eq!(from_bytes(&short, |r| r.seq(Reader::u64)), Err(err.clone()));
        assert_eq!(from_bytes(&short, Reader::string), Err(err));
        // Exactly the bytes left is fine.
        assert_eq!(from_bytes(&[2, 1, 2], |r| r.seq(Reader::u64)), Ok(vec![1, 2]));
    }

    #[test]
    fn rejects_input_that_ends_inside_a_value() {
        assert_eq!(from_bytes(&[0x80], Reader::u64), Err(CodecError::Truncated));
        assert_eq!(from_bytes(&[0; 7], Reader::f64), Err(CodecError::Truncated));
        assert_eq!(from_bytes(&[], |r| r.option(Reader::u64)), Err(CodecError::Truncated));
    }

    #[test]
    fn rejects_invalid_utf8() {
        assert_eq!(from_bytes(&[2, 0xff, 0xfe], Reader::string), Err(CodecError::InvalidUtf8));
        // A character cut in half.
        assert_eq!(from_bytes(&[1, 0xc3], Reader::string), Err(CodecError::InvalidUtf8));
    }

    #[test]
    fn rejects_unknown_variant_indexes() {
        let err = from_bytes(&[6], EntityKind::decode);
        assert_eq!(err, Err(CodecError::UnknownVariant { what: "entity kind", index: 6 }));
        let err = from_bytes(&[3], |r| r.variant("token kind", &TokenKind::ALL));
        assert_eq!(err, Err(CodecError::UnknownVariant { what: "token kind", index: 3 }));
        // A WAL record (seq 0) whose op is 5, the other fields valid.
        let record = [0, 5, 1, b'a', 1, b'b', 5, 0, 0];
        let err = from_bytes(&record, crate::wal::read_record);
        assert_eq!(err, Err(CodecError::UnknownVariant { what: "mutation op", index: 5 }));
        // The last index of each is valid.
        assert_eq!(from_bytes(&[5], EntityKind::decode), Ok(EntityKind::Other));
        let punct = from_bytes(&[2], |r| r.variant("token kind", &TokenKind::ALL));
        assert_eq!(punct, Ok(TokenKind::Punct));
    }

    #[test]
    fn rejects_an_option_tag_above_one() {
        let err = from_bytes(&[2, 0], |r| r.option(Reader::u64));
        assert_eq!(err, Err(CodecError::BadOptionTag(2)));
    }

    #[test]
    fn rejects_trailing_bytes() {
        assert_eq!(from_bytes(&[7, 0], Reader::u64), Err(CodecError::TrailingBytes(1)));
        assert_eq!(from_bytes(&[7], Reader::u64), Ok(7));
    }
}
