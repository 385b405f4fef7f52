//! Compact binary snapshots of a knowledge base.
//!
//! A hand-rolled, versioned binary codec over the serde data model is
//! overkill here; instead we use a simple length-prefixed encoding written
//! through a minimal serializer implemented in this module. The format is
//! deliberately tiny: it only needs to round-trip the concrete types of this
//! crate, keeping the workspace inside its approved dependency set (serde
//! without a third-party format crate).
//!
//! There is one on-disk layout, format version 3: an 8-byte header (magic,
//! version) followed by six section frames in a fixed order — entities,
//! dictionary, links, keyphrases, weights, phrase runs — each
//! length-prefixed and individually FNV-checksummed, decoding straight into
//! the flat arrays of a [`FrozenKb`]. [`write_frozen_snapshot`] writes it,
//! and [`read_frozen_snapshot`] reads back exactly that layout and no
//! other. A KB grows after its snapshot only through the write-ahead log
//! ([`crate::wal`]), so a snapshot plus its log is the whole durable state.
//!
//! Snapshots are hardened against corruption: truncation, bit flips,
//! version skew, misplaced or extra frames and sections that disagree in
//! shape all surface as structured [`SnapshotError`]s — never a panic,
//! never silently garbled data.

use std::io::{self, Read, Write};

use ned_core::{NedError, SnapshotError};
use ned_obs::{names, Metrics};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::entity::Entity;
use crate::frozen::{FrozenDictionary, FrozenKb, FrozenLinks, FrozenPhrases};
use crate::phrase_runs::PhraseRuns;
use crate::weights::WeightModel;

mod codec {
    //! A minimal self-describing binary serde format (subset sufficient for
    //! the plain-data types of this workspace: structs, vecs, maps, strings,
    //! integers, floats, options, enums with unit/newtype variants).

    use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
    use serde::ser::{self, SerializeMap, SerializeSeq, SerializeStruct, SerializeTuple};
    use serde::{Deserialize, Serialize};
    use std::fmt;

    /// Serialization/deserialization error.
    #[derive(Debug)]
    pub struct Error(pub String);

    impl fmt::Display for Error {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "codec error: {}", self.0)
        }
    }

    impl std::error::Error for Error {}

    impl ser::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    impl de::Error for Error {
        fn custom<T: fmt::Display>(msg: T) -> Self {
            Error(msg.to_string())
        }
    }

    /// Serializes a value to bytes.
    pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, Error> {
        let mut ser = Ser { out: Vec::new() };
        value.serialize(&mut ser)?;
        Ok(ser.out)
    }

    /// Deserializes a value from bytes.
    pub fn from_bytes<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, Error> {
        let mut de = De { input: bytes };
        let v = T::deserialize(&mut de)?;
        if !de.input.is_empty() {
            return Err(Error(format!("{} trailing bytes", de.input.len())));
        }
        Ok(v)
    }

    struct Ser {
        out: Vec<u8>,
    }

    impl Ser {
        fn put_u64(&mut self, v: u64) {
            // LEB128 variable-length encoding.
            let mut v = v;
            loop {
                let byte = (v & 0x7f) as u8;
                v >>= 7;
                if v == 0 {
                    self.out.push(byte);
                    break;
                }
                self.out.push(byte | 0x80);
            }
        }
    }

    impl ser::Serializer for &mut Ser {
        type Ok = ();
        type Error = Error;
        type SerializeSeq = Self;
        type SerializeTuple = Self;
        type SerializeTupleStruct = Self;
        type SerializeTupleVariant = Self;
        type SerializeMap = Self;
        type SerializeStruct = Self;
        type SerializeStructVariant = Self;

        fn serialize_bool(self, v: bool) -> Result<(), Error> {
            self.out.push(v as u8);
            Ok(())
        }
        fn serialize_i8(self, v: i8) -> Result<(), Error> {
            self.serialize_i64(v.into())
        }
        fn serialize_i16(self, v: i16) -> Result<(), Error> {
            self.serialize_i64(v.into())
        }
        fn serialize_i32(self, v: i32) -> Result<(), Error> {
            self.serialize_i64(v.into())
        }
        fn serialize_i64(self, v: i64) -> Result<(), Error> {
            // ZigZag encoding.
            self.put_u64(((v << 1) ^ (v >> 63)) as u64);
            Ok(())
        }
        fn serialize_u8(self, v: u8) -> Result<(), Error> {
            self.put_u64(v.into());
            Ok(())
        }
        fn serialize_u16(self, v: u16) -> Result<(), Error> {
            self.put_u64(v.into());
            Ok(())
        }
        fn serialize_u32(self, v: u32) -> Result<(), Error> {
            self.put_u64(v.into());
            Ok(())
        }
        fn serialize_u64(self, v: u64) -> Result<(), Error> {
            self.put_u64(v);
            Ok(())
        }
        fn serialize_f32(self, v: f32) -> Result<(), Error> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
        fn serialize_f64(self, v: f64) -> Result<(), Error> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
        fn serialize_char(self, v: char) -> Result<(), Error> {
            self.put_u64(v as u64);
            Ok(())
        }
        fn serialize_str(self, v: &str) -> Result<(), Error> {
            self.put_u64(v.len() as u64);
            self.out.extend_from_slice(v.as_bytes());
            Ok(())
        }
        fn serialize_bytes(self, v: &[u8]) -> Result<(), Error> {
            self.put_u64(v.len() as u64);
            self.out.extend_from_slice(v);
            Ok(())
        }
        fn serialize_none(self) -> Result<(), Error> {
            self.out.push(0);
            Ok(())
        }
        fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), Error> {
            self.out.push(1);
            value.serialize(self)
        }
        fn serialize_unit(self) -> Result<(), Error> {
            Ok(())
        }
        fn serialize_unit_struct(self, _name: &'static str) -> Result<(), Error> {
            Ok(())
        }
        fn serialize_unit_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
        ) -> Result<(), Error> {
            self.put_u64(variant_index.into());
            Ok(())
        }
        fn serialize_newtype_struct<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            value.serialize(self)
        }
        fn serialize_newtype_variant<T: ?Sized + Serialize>(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            self.put_u64(variant_index.into());
            value.serialize(self)
        }
        fn serialize_seq(self, len: Option<usize>) -> Result<Self, Error> {
            let len = len.ok_or_else(|| Error("sequence length required".into()))?;
            self.put_u64(len as u64);
            Ok(self)
        }
        fn serialize_tuple(self, _len: usize) -> Result<Self, Error> {
            Ok(self)
        }
        fn serialize_tuple_struct(self, _name: &'static str, _len: usize) -> Result<Self, Error> {
            Ok(self)
        }
        fn serialize_tuple_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, Error> {
            self.put_u64(variant_index.into());
            Ok(self)
        }
        fn serialize_map(self, len: Option<usize>) -> Result<Self, Error> {
            let len = len.ok_or_else(|| Error("map length required".into()))?;
            self.put_u64(len as u64);
            Ok(self)
        }
        fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self, Error> {
            Ok(self)
        }
        fn serialize_struct_variant(
            self,
            _name: &'static str,
            variant_index: u32,
            _variant: &'static str,
            _len: usize,
        ) -> Result<Self, Error> {
            self.put_u64(variant_index.into());
            Ok(self)
        }
    }

    impl SerializeSeq for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl SerializeTuple for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_element<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl ser::SerializeTupleStruct for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl ser::SerializeTupleVariant for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl SerializeMap for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), Error> {
            key.serialize(&mut **self)
        }
        fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl SerializeStruct for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            _key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn skip_field(&mut self, _key: &'static str) -> Result<(), Error> {
            Ok(())
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    impl ser::SerializeStructVariant for &mut Ser {
        type Ok = ();
        type Error = Error;
        fn serialize_field<T: ?Sized + Serialize>(
            &mut self,
            _key: &'static str,
            value: &T,
        ) -> Result<(), Error> {
            value.serialize(&mut **self)
        }
        fn end(self) -> Result<(), Error> {
            Ok(())
        }
    }

    struct De<'de> {
        input: &'de [u8],
    }

    impl<'de> De<'de> {
        fn take(&mut self, n: usize) -> Result<&'de [u8], Error> {
            if self.input.len() < n {
                return Err(Error("unexpected end of input".into()));
            }
            let (head, tail) = self.input.split_at(n);
            self.input = tail;
            Ok(head)
        }

        fn get_u64(&mut self) -> Result<u64, Error> {
            let mut v = 0u64;
            let mut shift = 0;
            loop {
                let byte = self.take(1)?[0];
                v |= u64::from(byte & 0x7f) << shift;
                if byte & 0x80 == 0 {
                    return Ok(v);
                }
                shift += 7;
                if shift >= 64 {
                    return Err(Error("varint overflow".into()));
                }
            }
        }

        fn get_i64(&mut self) -> Result<i64, Error> {
            let z = self.get_u64()?;
            Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
        }
    }

    macro_rules! de_uint {
        ($method:ident, $visit:ident, $ty:ty) => {
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_u64()?;
                visitor.$visit(<$ty>::try_from(v).map_err(|_| Error("int out of range".into()))?)
            }
        };
    }

    macro_rules! de_int {
        ($method:ident, $visit:ident, $ty:ty) => {
            fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
                let v = self.get_i64()?;
                visitor.$visit(<$ty>::try_from(v).map_err(|_| Error("int out of range".into()))?)
            }
        };
    }

    impl<'de> de::Deserializer<'de> for &mut De<'de> {
        type Error = Error;

        fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
            Err(Error("format is not self-describing".into()))
        }

        fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            visitor.visit_bool(self.take(1)?[0] != 0)
        }

        de_int!(deserialize_i8, visit_i8, i8);
        de_int!(deserialize_i16, visit_i16, i16);
        de_int!(deserialize_i32, visit_i32, i32);

        fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let v = self.get_i64()?;
            visitor.visit_i64(v)
        }

        de_uint!(deserialize_u8, visit_u8, u8);
        de_uint!(deserialize_u16, visit_u16, u16);
        de_uint!(deserialize_u32, visit_u32, u32);

        fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let v = self.get_u64()?;
            visitor.visit_u64(v)
        }

        fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let b = self.take(4)?;
            let b: [u8; 4] = b.try_into().map_err(|_| Error("bad f32 slice".into()))?;
            visitor.visit_f32(f32::from_le_bytes(b))
        }

        fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let b = self.take(8)?;
            let b: [u8; 8] = b.try_into().map_err(|_| Error("bad f64 slice".into()))?;
            visitor.visit_f64(f64::from_le_bytes(b))
        }

        fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let v = u32::try_from(self.get_u64()?).map_err(|_| Error("bad char".into()))?;
            visitor.visit_char(char::from_u32(v).ok_or_else(|| Error("bad char".into()))?)
        }

        fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let len = self.get_u64()? as usize;
            let bytes = self.take(len)?;
            visitor.visit_borrowed_str(
                std::str::from_utf8(bytes).map_err(|e| Error(e.to_string()))?,
            )
        }

        fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            self.deserialize_str(visitor)
        }

        fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let len = self.get_u64()? as usize;
            visitor.visit_borrowed_bytes(self.take(len)?)
        }

        fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            self.deserialize_bytes(visitor)
        }

        fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            if self.take(1)?[0] == 0 {
                visitor.visit_none()
            } else {
                visitor.visit_some(self)
            }
        }

        fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            visitor.visit_unit()
        }

        fn deserialize_unit_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_unit()
        }

        fn deserialize_newtype_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_newtype_struct(self)
        }

        fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let len = self.get_u64()? as usize;
            visitor.visit_seq(Counted { de: self, remaining: len })
        }

        fn deserialize_tuple<V: Visitor<'de>>(
            self,
            len: usize,
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_seq(Counted { de: self, remaining: len })
        }

        fn deserialize_tuple_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            len: usize,
            visitor: V,
        ) -> Result<V::Value, Error> {
            self.deserialize_tuple(len, visitor)
        }

        fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
            let len = self.get_u64()? as usize;
            visitor.visit_map(Counted { de: self, remaining: len })
        }

        fn deserialize_struct<V: Visitor<'de>>(
            self,
            _name: &'static str,
            fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_seq(Counted { de: self, remaining: fields.len() })
        }

        fn deserialize_enum<V: Visitor<'de>>(
            self,
            _name: &'static str,
            _variants: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            visitor.visit_enum(EnumAccess { de: self })
        }

        fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
            Err(Error("identifiers are not encoded".into()))
        }

        fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, Error> {
            Err(Error("cannot skip values in non-self-describing format".into()))
        }
    }

    struct Counted<'a, 'de> {
        de: &'a mut De<'de>,
        remaining: usize,
    }

    impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
        type Error = Error;
        fn next_element_seed<T: DeserializeSeed<'de>>(
            &mut self,
            seed: T,
        ) -> Result<Option<T::Value>, Error> {
            if self.remaining == 0 {
                return Ok(None);
            }
            self.remaining -= 1;
            seed.deserialize(&mut *self.de).map(Some)
        }
        fn size_hint(&self) -> Option<usize> {
            Some(self.remaining)
        }
    }

    impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
        type Error = Error;
        fn next_key_seed<K: DeserializeSeed<'de>>(
            &mut self,
            seed: K,
        ) -> Result<Option<K::Value>, Error> {
            if self.remaining == 0 {
                return Ok(None);
            }
            self.remaining -= 1;
            seed.deserialize(&mut *self.de).map(Some)
        }
        fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value, Error> {
            seed.deserialize(&mut *self.de)
        }
        fn size_hint(&self) -> Option<usize> {
            Some(self.remaining)
        }
    }

    struct EnumAccess<'a, 'de> {
        de: &'a mut De<'de>,
    }

    impl<'de, 'a> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
        type Error = Error;
        type Variant = &'a mut De<'de>;
        fn variant_seed<V: DeserializeSeed<'de>>(
            self,
            seed: V,
        ) -> Result<(V::Value, Self::Variant), Error> {
            let idx = u32::try_from(self.de.get_u64()?).map_err(|_| Error("bad variant".into()))?;
            let val = seed.deserialize(idx.into_deserializer())?;
            Ok((val, self.de))
        }
    }

    impl<'de> de::VariantAccess<'de> for &mut De<'de> {
        type Error = Error;
        fn unit_variant(self) -> Result<(), Error> {
            Ok(())
        }
        fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value, Error> {
            seed.deserialize(self)
        }
        fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, Error> {
            de::Deserializer::deserialize_tuple(self, len, visitor)
        }
        fn struct_variant<V: Visitor<'de>>(
            self,
            fields: &'static [&'static str],
            visitor: V,
        ) -> Result<V::Value, Error> {
            de::Deserializer::deserialize_tuple(self, fields.len(), visitor)
        }
    }
}

pub use codec::Error as CodecError;

/// Magic bytes identifying a knowledge-base snapshot.
const MAGIC: &[u8; 6] = b"AIDAKB";

/// The snapshot format version this binary reads and writes. Every other
/// version is rejected with [`SnapshotError::UnsupportedVersion`]: v1
/// ("AIDAKB01", whose version bytes decode as ASCII `"01"`), v2 (one
/// monolithic checksummed body) and any later one.
pub const FORMAT_VERSION: u16 = 3;

/// Header layout: magic (6) + version u16 (2); the section frames follow.
const V3_HEADER_LEN: usize = 8;

/// Section frame prelude: tag u8 (1) + body length u64 (8) + FNV-1a body
/// checksum u64 (8), all little-endian.
const FRAME_PRELUDE_LEN: usize = 17;

/// A section frame's tag, and the section's name in errors and gauges.
struct Section {
    tag: u8,
    name: &'static str,
}

// The six sections, in the order `write_frozen_snapshot` writes them and
// `read_frozen_snapshot` requires them.
const ENTITIES: Section = Section { tag: 1, name: "entities" };
const DICTIONARY: Section = Section { tag: 2, name: "dictionary" };
const LINKS: Section = Section { tag: 3, name: "links" };
const KEYPHRASES: Section = Section { tag: 4, name: "keyphrases" };
const WEIGHTS: Section = Section { tag: 5, name: "weights" };
const PHRASE_RUNS: Section = Section { tag: 6, name: "phrase_runs" };

/// FNV-1a over the snapshot body; not cryptographic, but any truncation or
/// stray bit flip changes it with overwhelming probability. Shared with the
/// WAL's per-record checksums ([`crate::wal`]).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serializes any serde value to the crate's binary format.
pub fn encode<T: Serialize>(value: &T) -> Result<Vec<u8>, CodecError> {
    codec::to_bytes(value)
}

/// Deserializes a value from the crate's binary format.
pub fn decode<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    codec::from_bytes(bytes)
}

/// Encodes one value as a section frame: tag, body length, FNV-1a body
/// checksum, body.
fn write_section<W: Write, T: Serialize>(
    writer: &mut W,
    section: Section,
    value: &T,
) -> Result<(), NedError> {
    let body =
        encode(value).map_err(|e| NedError::Snapshot(SnapshotError::Codec(e.to_string())))?;
    let mut prelude = [0u8; FRAME_PRELUDE_LEN];
    prelude[0] = section.tag; // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[1..9].copy_from_slice(&(body.len() as u64).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[9..17].copy_from_slice(&fnv1a(&body).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer
        .write_all(&prelude)
        .and_then(|()| writer.write_all(&body))
        .map_err(|e| NedError::io("writing snapshot section", e))
}

/// Writes a snapshot of a [`FrozenKb`]: the 8-byte header followed by the
/// six section frames (entities, dictionary, links, keyphrases, weights,
/// phrase_runs), each length-prefixed and individually checksummed.
pub fn write_frozen_snapshot<W: Write>(kb: &FrozenKb, mut writer: W) -> Result<(), NedError> {
    let mut header = [0u8; V3_HEADER_LEN];
    header[..6].copy_from_slice(MAGIC); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[6..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer.write_all(&header).map_err(|e| NedError::io("writing snapshot header", e))?;
    let (entities, dictionary, links, phrases, weights, phrase_runs) = kb.sections();
    write_section(&mut writer, ENTITIES, entities)?;
    write_section(&mut writer, DICTIONARY, dictionary)?;
    write_section(&mut writer, LINKS, links)?;
    write_section(&mut writer, KEYPHRASES, phrases)?;
    write_section(&mut writer, WEIGHTS, weights)?;
    write_section(&mut writer, PHRASE_RUNS, phrase_runs)?;
    Ok(())
}

/// Reads the next frame, which must carry `section`, validates its length
/// and checksum, and decodes its body. Records the body size as a gauge
/// and adds the frame's bytes to `total_bytes`.
fn read_section<R: Read, T: DeserializeOwned>(
    reader: &mut R,
    section: Section,
    metrics: &Metrics,
    total_bytes: &mut u64,
) -> Result<T, NedError> {
    let mut prelude = [0u8; FRAME_PRELUDE_LEN];
    let got = read_up_to(reader, &mut prelude)
        .map_err(|e| NedError::io("reading snapshot section header", e))?;
    let [tag, ..] = prelude;
    if got == 0 || tag != section.tag {
        // The stream ended, or a frame stands where this section belongs.
        let known = (ENTITIES.tag..=PHRASE_RUNS.tag).contains(&tag);
        return Err(if got == 0 || known {
            SnapshotError::MissingSection { section: section.name }
        } else {
            SnapshotError::UnknownSection { tag }
        }
        .into());
    }
    if got < FRAME_PRELUDE_LEN {
        return Err(SnapshotError::SectionTruncated {
            section: section.name,
            expected: FRAME_PRELUDE_LEN as u64,
            actual: got as u64,
        }
        .into());
    }
    let len = u64::from_le_bytes(prelude[1..9].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    let expected_checksum = u64::from_le_bytes(prelude[9..17].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    // Read through `take` instead of preallocating `len` bytes: a corrupted
    // length must not trigger a huge allocation.
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(len)
        .read_to_end(&mut body)
        .map_err(|e| NedError::io("reading snapshot section", e))?;
    if body.len() as u64 != len {
        return Err(SnapshotError::SectionTruncated {
            section: section.name,
            expected: len,
            actual: body.len() as u64,
        }
        .into());
    }
    let actual_checksum = fnv1a(&body);
    if actual_checksum != expected_checksum {
        return Err(SnapshotError::SectionChecksumMismatch {
            section: section.name,
            expected: expected_checksum,
            actual: actual_checksum,
        }
        .into());
    }
    let gauge = format!("{}{}", names::SNAPSHOT_SECTION_BYTES_PREFIX, section.name);
    metrics.gauge(&gauge).set(body.len() as u64);
    *total_bytes += (FRAME_PRELUDE_LEN + body.len()) as u64;
    decode(&body)
        .map_err(|e| NedError::Snapshot(SnapshotError::Codec(format!("{}: {e}", section.name))))
}

/// Reads a snapshot into the read-optimized [`FrozenKb`].
///
/// The stream must hold exactly what [`write_frozen_snapshot`] writes: the
/// header, the six section frames in tag order 1–6, and nothing after them.
///
/// - Any format version but [`FORMAT_VERSION`], v1 and v2 included, is
///   [`SnapshotError::UnsupportedVersion`].
/// - Each frame's length and checksum are validated on their own
///   ([`SnapshotError::SectionTruncated`] /
///   [`SnapshotError::SectionChecksumMismatch`] name the failing section).
/// - A section that is not in its place, because the stream ended or
///   another frame stands there, is [`SnapshotError::MissingSection`]; a
///   frame with an unknown tag is [`SnapshotError::UnknownSection`].
/// - A byte after the last frame, or decoded sections that disagree in
///   shape, are [`SnapshotError::Codec`]. The shape check requires every
///   offset array to index its data from 0 to its end in order, with one
///   row per entity, phrase or name, and every stored id to lie below its
///   count; the error names the section that fails it.
///
/// The sections then go through the constructor [`FrozenKb::freeze`] uses,
/// so the transient indexes (`entity_by_name`, the keyphrase inverted
/// index) are rebuilt: a loaded KB is indistinguishable from a freshly
/// frozen one.
pub fn read_frozen_snapshot<R: Read>(reader: R) -> Result<FrozenKb, NedError> {
    read_frozen_snapshot_observed(reader, &Metrics::disabled())
}

/// [`read_frozen_snapshot`] with load observability: records the read span
/// and per-section body sizes as gauges (`snapshot_section_bytes_<name>`,
/// plus `snapshot_bytes_total`) into the given registry. Pass
/// [`Metrics::disabled`] (or call the plain reader) to skip accounting.
// ned-lint: entry — snapshot load is a recovery root, like WAL replay:
// every byte it decodes comes from outside the process.
pub fn read_frozen_snapshot_observed<R: Read>(
    mut reader: R,
    metrics: &Metrics,
) -> Result<FrozenKb, NedError> {
    let _span = metrics.span(names::STAGE_SNAPSHOT_READ_NS);
    let mut header = [0u8; V3_HEADER_LEN];
    let got = read_up_to(&mut reader, &mut header)
        .map_err(|e| NedError::io("reading snapshot header", e))?;
    if got < V3_HEADER_LEN {
        if got < 6 || &header[..6] != MAGIC { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            return Err(SnapshotError::BadMagic.into());
        }
        return Err(
            SnapshotError::Truncated { expected: V3_HEADER_LEN as u64, actual: got as u64 }.into()
        );
    }
    if &header[..6] != MAGIC { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        return Err(SnapshotError::BadMagic.into());
    }
    let version = u16::from_le_bytes([header[6], header[7]]); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    if version != FORMAT_VERSION {
        return Err(
            SnapshotError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }.into()
        );
    }
    let mut total = V3_HEADER_LEN as u64;
    let entities: Vec<Entity> = read_section(&mut reader, ENTITIES, metrics, &mut total)?;
    let dictionary: FrozenDictionary =
        read_section(&mut reader, DICTIONARY, metrics, &mut total)?;
    let links: FrozenLinks = read_section(&mut reader, LINKS, metrics, &mut total)?;
    let phrases: FrozenPhrases = read_section(&mut reader, KEYPHRASES, metrics, &mut total)?;
    let weights: WeightModel = read_section(&mut reader, WEIGHTS, metrics, &mut total)?;
    let phrase_runs: PhraseRuns = read_section(&mut reader, PHRASE_RUNS, metrics, &mut total)?;
    let extra = read_up_to(&mut reader, &mut [0u8; 1])
        .map_err(|e| NedError::io("reading snapshot", e))?;
    if extra > 0 {
        return Err(SnapshotError::Codec("bytes follow the last section".into()).into());
    }
    metrics.gauge(names::SNAPSHOT_BYTES_TOTAL).set(total);

    // Path calls, not `.check()`: a method name with five candidates draws
    // no call-graph edge, and the lint's p2 rule must follow the load into
    // every check.
    let (n, words, phrase_count) = (entities.len(), phrases.word_count(), phrases.phrase_count());
    for (section, shape) in [
        (DICTIONARY, FrozenDictionary::check(&dictionary, n)),
        (LINKS, FrozenLinks::check(&links, n)),
        (KEYPHRASES, FrozenPhrases::check(&phrases, n)),
        (WEIGHTS, WeightModel::check(&weights, n, words, phrase_count)),
        (PHRASE_RUNS, PhraseRuns::check(&phrase_runs, n, words, phrase_count)),
    ] {
        shape.map_err(|e| SnapshotError::Codec(format!("{}: {e}", section.name)))?;
    }
    Ok(FrozenKb::assemble(entities, dictionary, links, phrases, weights, Some(phrase_runs)))
}

/// Checks that `offsets` indexes `rows` rows of a `data_len`-entry array:
/// `rows + 1` offsets that start at 0, never decrease and end at
/// `data_len`. `what` names the array in the error.
pub(crate) fn check_offsets(
    offsets: &[u32],
    rows: usize,
    data_len: usize,
    what: &str,
) -> Result<(), String> {
    if offsets.len() != rows + 1 {
        return Err(format!("{} {what} offsets for {rows} rows", offsets.len()));
    }
    let in_order = offsets.windows(2).all(|w| w.first() <= w.last());
    let ends = offsets.last().map(|&o| o as usize);
    if offsets.first() != Some(&0) || ends != Some(data_len) || !in_order {
        return Err(format!("{what} offsets do not run in order from 0 to {data_len}"));
    }
    Ok(())
}

/// Checks that every id in `ids` lies below `count`. `what` names the ids
/// in the error.
pub(crate) fn check_ids(
    ids: impl IntoIterator<Item = usize>,
    count: usize,
    what: &str,
) -> Result<(), String> {
    match ids.into_iter().find(|&id| id >= count) {
        Some(id) => Err(format!("{what} id {id} is not below {count}")),
        None => Ok(()),
    }
}

/// Fills `buf` as far as the stream allows; returns the bytes read. Unlike
/// `read_exact`, a short stream is reported by count, not an error, so the
/// caller can distinguish bad magic from truncation. Shared with the WAL
/// replayer ([`crate::wal`]), which needs the same distinction per frame.
pub(crate) fn read_up_to<R: Read>(reader: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::EntityKind;
    use crate::store::KnowledgeBase;
    use crate::KbBuilder;

    fn sample_kb() -> KnowledgeBase {
        let mut b = KbBuilder::new();
        let a = b.add_entity("Alpha Band", EntityKind::Organization);
        let c = b.add_entity("Alpha City", EntityKind::Location);
        b.add_name(a, "Alpha", 10);
        b.add_name(c, "Alpha", 90);
        b.add_keyphrase(a, "rock band", 3);
        b.add_keyphrase(c, "coastal city", 2);
        b.add_link(a, c);
        b.build()
    }

    /// The v3 bytes of the sample KB, frozen.
    fn sample_snapshot() -> Vec<u8> {
        let mut buf = Vec::new();
        write_frozen_snapshot(&FrozenKb::freeze(&sample_kb()), &mut buf).unwrap();
        buf
    }

    #[test]
    fn rejects_version_skew() {
        let buf = sample_snapshot();
        // v1 started with the ASCII bytes "AIDAKB01"; v2 is the retired
        // monolithic format; v4 is a future one. All are version skew.
        for version in [u16::from_le_bytes(*b"01"), 1, 2, FORMAT_VERSION + 1] {
            let mut skewed = buf.clone();
            skewed[6..8].copy_from_slice(&version.to_le_bytes());
            match read_frozen_snapshot(skewed.as_slice()).unwrap_err() {
                NedError::Snapshot(SnapshotError::UnsupportedVersion { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected version skew, got {other}"),
            }
        }
    }

    #[test]
    fn codec_roundtrips_basic_types() {
        #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
        struct S {
            a: u32,
            b: String,
            c: Vec<(i64, f64)>,
            d: Option<bool>,
            e: std::collections::HashMap<String, u8>,
        }
        let mut e = std::collections::HashMap::new();
        e.insert("k".to_string(), 7u8);
        let s = S {
            a: 42,
            b: "hello".into(),
            c: vec![(-5, 1.5), (i64::MAX, -0.0)],
            d: Some(true),
            e,
        };
        let bytes = encode(&s).unwrap();
        let s2: S = decode(&bytes).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    fn codec_rejects_trailing_bytes() {
        let bytes = encode(&7u32).unwrap();
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode::<u32>(&longer).is_err());
        assert_eq!(decode::<u32>(&bytes).unwrap(), 7);
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let bytes = encode(&"a longer string".to_string()).unwrap();
        assert!(decode::<String>(&bytes[..bytes.len() - 2]).is_err());
    }

    #[test]
    fn corrupted_frame_length_errors_without_allocating_it() {
        // The entities frame claims u64::MAX body bytes: the reader must
        // report truncation, not try to allocate them.
        let mut huge = sample_snapshot();
        huge[V3_HEADER_LEN + 1..V3_HEADER_LEN + 9].copy_from_slice(&u64::MAX.to_le_bytes());
        match read_frozen_snapshot(huge.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::SectionTruncated { section, expected, .. }) => {
                assert_eq!(section, "entities");
                assert_eq!(expected, u64::MAX);
            }
            other => panic!("expected a truncated section, got {other}"),
        }
    }

    fn assert_frozen_matches(fz: &FrozenKb, kb: &KnowledgeBase) {
        assert_eq!(fz.entity_count(), kb.entity_count());
        for e in kb.entity_ids() {
            assert_eq!(fz.entity(e).canonical_name, kb.entity(e).canonical_name);
            assert_eq!(fz.keyphrases(e), kb.keyphrases(e));
            assert_eq!(fz.links().inlinks(e), kb.links().inlinks(e));
            assert_eq!(fz.links().outlinks(e), kb.links().outlinks(e));
        }
        assert_eq!(fz.candidates("Alpha"), kb.candidates("Alpha"));
        for e in kb.entity_ids() {
            assert_eq!(fz.prior("Alpha", e).to_bits(), kb.prior("Alpha", e).to_bits());
        }
        let reference = FrozenKb::freeze(kb).keyphrase_index().posting_count();
        assert_eq!(fz.keyphrase_index().posting_count(), reference);
    }

    #[test]
    fn v3_roundtrip_preserves_frozen_kb() {
        let kb = sample_kb();
        let buf = sample_snapshot();
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), FORMAT_VERSION);
        let fz2 = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_frozen_matches(&fz2, &kb);
        // Numeric weight content survives the section framing.
        let a = kb.entity_by_name("Alpha Band").unwrap();
        let w = kb.word_id("rock").unwrap();
        assert_eq!(fz2.weights().keyword_npmi(a, w), kb.weights().keyword_npmi(a, w));
    }

    #[test]
    fn v3_section_corruption_names_the_section() {
        let buf = sample_snapshot();
        // The first frame after the 8-byte header is the entities section;
        // flip a byte inside its body.
        let body_len =
            u64::from_le_bytes(buf[9..17].try_into().unwrap()) as usize;
        assert!(body_len > 0);
        let mut corrupted = buf.clone();
        corrupted[V3_HEADER_LEN + FRAME_PRELUDE_LEN] ^= 0x01;
        match read_frozen_snapshot(corrupted.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::SectionChecksumMismatch { section, .. }) => {
                assert_eq!(section, "entities");
            }
            other => panic!("expected section checksum mismatch, got {other}"),
        }
        // Every single-byte flip anywhere in the stream must error, never
        // panic or decode garbage.
        for pos in V3_HEADER_LEN..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0xff;
            assert!(
                read_frozen_snapshot(corrupted.as_slice()).is_err(),
                "flip at {pos} slipped through"
            );
        }
        // Every strict prefix errors too: all six frames are required.
        for cut in 0..buf.len() {
            assert!(read_frozen_snapshot(&buf[..cut]).is_err(), "cut at {cut} did not error");
        }
    }

    /// Byte offsets of every v3 frame start, in stream order.
    fn frame_starts(buf: &[u8]) -> Vec<usize> {
        let mut starts = Vec::new();
        let mut pos = V3_HEADER_LEN;
        while pos < buf.len() {
            starts.push(pos);
            let body_len =
                u64::from_le_bytes(buf[pos + 1..pos + 9].try_into().unwrap()) as usize;
            pos += FRAME_PRELUDE_LEN + body_len;
        }
        starts
    }

    /// `buf` with its frame at `index` replaced by a frame of `tag` whose
    /// body encodes `value`, checksummed so that only its shape is wrong.
    fn with_frame<T: Serialize>(buf: &[u8], index: usize, tag: u8, value: &T) -> Vec<u8> {
        let mut ends = frame_starts(buf);
        ends.push(buf.len());
        let body = encode(value).unwrap();
        let mut out = buf[..ends[index]].to_vec();
        out.push(tag);
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out.extend_from_slice(&buf[ends[index + 1]..]);
        out
    }

    /// The section a shape error names, from its message.
    fn shape_error_section(err: NedError) -> String {
        match err {
            NedError::Snapshot(SnapshotError::Codec(msg)) => {
                msg.split(':').next().unwrap().to_string()
            }
            other => panic!("expected a shape error, got {other}"),
        }
    }

    #[test]
    fn v3_missing_section_is_reported() {
        let buf = sample_snapshot();
        let starts = frame_starts(&buf);
        assert_eq!(starts.len(), 6, "expected six frames");
        for (start, section) in starts.iter().zip(
            ["entities", "dictionary", "links", "keyphrases", "weights", "phrase_runs"],
        ) {
            match read_frozen_snapshot(&buf[..*start]).unwrap_err() {
                NedError::Snapshot(SnapshotError::MissingSection { section: missing }) => {
                    assert_eq!(missing, section);
                }
                other => panic!("expected missing section {section}, got {other}"),
            }
        }
    }

    #[test]
    fn v3_phrase_run_section_is_required_and_roundtrips() {
        let fz = FrozenKb::freeze(&sample_kb());
        let buf = sample_snapshot();
        let starts = frame_starts(&buf);
        assert_eq!(buf[starts[5]], 6, "phrase-run frame tag");

        // The full stream decodes the persisted runs, equal to the freshly
        // frozen structure.
        let loaded = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_eq!(loaded.phrase_runs(), fz.phrase_runs());
        assert_eq!(loaded.stats().phrase_run_bytes, fz.stats().phrase_run_bytes);

        // A stream cut before the phrase-run frame lacks a section.
        assert!(matches!(
            read_frozen_snapshot(&buf[..starts[5]]),
            Err(NedError::Snapshot(SnapshotError::MissingSection { section: "phrase_runs" }))
        ));

        // A phrase-run section that decodes but does not fit the KB's
        // dimensions is rejected, not trusted and not rebuilt.
        let foreign = {
            let mut b = KbBuilder::new();
            let e = b.add_entity("Lone", EntityKind::Other);
            b.add_keyphrase(e, "single phrase", 1);
            FrozenKb::freeze(&b.build()).phrase_runs().clone()
        };
        let swapped = with_frame(&buf, 5, 6, &foreign);
        let err = read_frozen_snapshot(swapped.as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "phrase_runs");
    }

    #[test]
    fn v3_sections_that_disagree_in_shape_are_rejected() {
        let buf = sample_snapshot();
        // A dictionary with no offsets at all: not even the leading 0.
        let err = read_frozen_snapshot(
            with_frame(&buf, 1, 2, &FrozenDictionary::default()).as_slice(),
        )
        .unwrap_err();
        assert_eq!(shape_error_section(err), "dictionary");
        // Sections of an empty KB: no rows where the entities frame has two.
        let empty = FrozenKb::freeze(&KbBuilder::new().build());
        let (_, dictionary, links, phrases, weights, runs) = empty.sections();
        let err = read_frozen_snapshot(with_frame(&buf, 2, 3, links).as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "links");
        let err = read_frozen_snapshot(with_frame(&buf, 3, 4, phrases).as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "keyphrases");
        let err = read_frozen_snapshot(with_frame(&buf, 4, 5, weights).as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "weights");
        let err = read_frozen_snapshot(with_frame(&buf, 5, 6, runs).as_slice()).unwrap_err();
        assert_eq!(shape_error_section(err), "phrase_runs");
        // The empty KB's dictionary has no rows, so it is consistent with
        // any entity count.
        assert!(read_frozen_snapshot(with_frame(&buf, 1, 2, dictionary).as_slice()).is_ok());
    }

    #[test]
    fn v3_unknown_tag_is_rejected() {
        let mut corrupted = sample_snapshot();
        corrupted[V3_HEADER_LEN] = 0x77; // entities frame tag → nonsense
        match read_frozen_snapshot(corrupted.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::UnknownSection { tag }) => assert_eq!(tag, 0x77),
            other => panic!("expected unknown section, got {other}"),
        }
    }

    #[test]
    fn observed_read_records_section_sizes() {
        let kb = sample_kb();
        let buf = sample_snapshot();
        let m = Metrics::new();
        let fz2 = read_frozen_snapshot_observed(buf.as_slice(), &m).unwrap();
        assert_frozen_matches(&fz2, &kb);
        let snap = m.snapshot();
        assert_eq!(snap.gauge(names::SNAPSHOT_BYTES_TOTAL), buf.len() as u64);
        for section in
            ["entities", "dictionary", "links", "keyphrases", "weights", "phrase_runs"]
        {
            let gauge = format!("{}{section}", names::SNAPSHOT_SECTION_BYTES_PREFIX);
            assert!(snap.gauge(&gauge) > 0, "section {section} size not recorded");
        }
        // Section sizes account for the whole stream minus framing.
        let framed: u64 = snap
            .gauges
            .iter()
            .filter(|(n, _)| n.starts_with(names::SNAPSHOT_SECTION_BYTES_PREFIX))
            .map(|&(_, v)| v + FRAME_PRELUDE_LEN as u64)
            .sum();
        assert_eq!(framed + V3_HEADER_LEN as u64, buf.len() as u64);
        // The read span counted one invocation (zero duration: null clock).
        let (_, span) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == names::STAGE_SNAPSHOT_READ_NS)
            .expect("snapshot read span recorded");
        assert_eq!(span.count, 1);
        assert_eq!(span.sum, 0);
    }

    #[test]
    fn v3_rejects_bad_magic() {
        let err = read_frozen_snapshot(&b"NOTAKB03"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
        let err = read_frozen_snapshot(&b"AI"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
    }
}
