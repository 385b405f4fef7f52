//! Compact binary snapshots of a knowledge base.
//!
//! A hand-rolled, versioned binary codec over the serde data model is
//! overkill here; instead we use a simple length-prefixed encoding written
//! through a minimal serializer implemented in this module. The format is
//! deliberately tiny: it only needs to round-trip the concrete types of this
//! crate, keeping the workspace inside its approved dependency set (serde
//! without a third-party format crate).
//!
//! Two on-disk layouts coexist:
//!
//! - **v2** (legacy): one monolithic body holding a serialized
//!   [`KnowledgeBase`], framed by a 24-byte header (magic, version, body
//!   length, FNV-1a checksum). Written by [`write_snapshot`], read by
//!   [`read_snapshot`].
//! - **v3** (current): five independent sections — entities, dictionary,
//!   links, keyphrases, weights — each length-prefixed and individually
//!   FNV-checksummed, decoding straight into the flat arrays of a
//!   [`FrozenKb`]. Written by [`write_frozen_snapshot`], read by
//!   [`read_frozen_snapshot`], which also accepts v2 streams via a
//!   freeze-on-load path. Per-section framing is what later PRs need for
//!   mmap and lazy per-section loading.
//!
//! Snapshots are hardened against corruption: truncation, bit flips, and
//! version skew all surface as structured [`SnapshotError`]s — never a
//! panic, never silently garbled data.

use std::io::{self, Read, Write};

use ned_core::{NedError, SnapshotError};
use ned_obs::{names, Metrics};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::entity::Entity;
use crate::frozen::{FrozenDictionary, FrozenKb, FrozenLinks, FrozenPhrases};
use crate::phrase_runs::PhraseRuns;
use crate::store::KnowledgeBase;
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

/// Current snapshot format version: sectioned frames decoding into a
/// [`FrozenKb`]. Version 1 ("AIDAKB01", no checksum) is rejected with
/// [`SnapshotError::UnsupportedVersion`]: its version bytes decode as ASCII
/// `"01"`.
pub const FORMAT_VERSION: u16 = 3;

/// The legacy monolithic-body format still written by [`write_snapshot`]
/// and accepted by [`read_frozen_snapshot`] via freeze-on-load.
pub const V2_FORMAT_VERSION: u16 = 2;

/// v2 header layout: magic (6) + version u16 (2) + body length u64 (8) +
/// FNV-1a body checksum u64 (8), all little-endian.
const HEADER_LEN: usize = 24;

/// v3 header layout: magic (6) + version u16 (2); sections follow.
const V3_HEADER_LEN: usize = 8;

/// v3 section frame prelude: tag u8 (1) + body length u64 (8) + FNV-1a body
/// checksum u64 (8), all little-endian.
const FRAME_PRELUDE_LEN: usize = 17;

/// v3 section tags, in the order [`write_frozen_snapshot`] emits them.
/// `PHRASE_RUNS` is *optional on read*: snapshots written before the
/// phrase-run cache existed simply lack the frame, and the loader rebuilds
/// the structure from keyphrases + weights.
mod tag {
    pub const ENTITIES: u8 = 1;
    pub const DICTIONARY: u8 = 2;
    pub const LINKS: u8 = 3;
    pub const KEYPHRASES: u8 = 4;
    pub const WEIGHTS: u8 = 5;
    pub const PHRASE_RUNS: u8 = 6;
}

/// Human-readable section name of a v3 tag (for error reporting).
fn section_name(t: u8) -> Option<&'static str> {
    match t {
        tag::ENTITIES => Some("entities"),
        tag::DICTIONARY => Some("dictionary"),
        tag::LINKS => Some("links"),
        tag::KEYPHRASES => Some("keyphrases"),
        tag::WEIGHTS => Some("weights"),
        tag::PHRASE_RUNS => Some("phrase_runs"),
        _ => None,
    }
}

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

/// Writes a legacy v2 knowledge-base snapshot (hardened header + one
/// monolithic encoded body). Kept alongside the v3 writer as the migration
/// fixture generator and for build pipelines that still produce the
/// mutable-shaped [`KnowledgeBase`].
pub fn write_snapshot<W: Write>(kb: &KnowledgeBase, mut writer: W) -> Result<(), NedError> {
    let body = encode(kb).map_err(|e| NedError::Snapshot(SnapshotError::Codec(e.to_string())))?;
    let mut header = [0u8; HEADER_LEN];
    header[..6].copy_from_slice(MAGIC); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[6..8].copy_from_slice(&V2_FORMAT_VERSION.to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[8..16].copy_from_slice(&(body.len() as u64).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[16..24].copy_from_slice(&fnv1a(&body).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer
        .write_all(&header)
        .and_then(|()| writer.write_all(&body))
        .map_err(|e| NedError::io("writing snapshot", e))
}

/// Reads a legacy v2 knowledge-base snapshot, verifying magic, version,
/// length, and checksum, and rebuilds transient indexes.
///
/// Corruption never panics: a truncated, bit-flipped, or version-skewed
/// stream yields the matching [`SnapshotError`]. Use
/// [`read_frozen_snapshot`] for the version-dispatching loader that accepts
/// both v2 and v3.
pub fn read_snapshot<R: Read>(mut reader: R) -> Result<KnowledgeBase, NedError> {
    let mut header = [0u8; HEADER_LEN];
    read_up_to(&mut reader, &mut header) // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        .map_err(|e| NedError::io("reading snapshot header", e))
        .and_then(|got| {
            if got < HEADER_LEN {
                // A stream shorter than the header cannot carry the magic.
                if got < 6 || &header[..6] != MAGIC {
                    Err(SnapshotError::BadMagic.into())
                } else {
                    Err(SnapshotError::Truncated { expected: HEADER_LEN as u64, actual: got as u64 }
                        .into())
                }
            } else {
                Ok(())
            }
        })?;
    if &header[..6] != MAGIC { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        return Err(SnapshotError::BadMagic.into());
    }
    let version = u16::from_le_bytes([header[6], header[7]]); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    if version != V2_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: V2_FORMAT_VERSION,
        }
        .into());
    }
    let len = u64::from_le_bytes(header[8..16].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    let expected_checksum = u64::from_le_bytes(header[16..24].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    read_v2_rest(&mut reader, len, expected_checksum)
}

/// Reads and validates a v2 body (length, checksum, decode) and rebuilds
/// the transient indexes. The 24-byte header has already been consumed.
fn read_v2_rest<R: Read>(
    reader: &mut R,
    len: u64,
    expected_checksum: u64,
) -> Result<KnowledgeBase, NedError> {
    // Read through `take` instead of preallocating `len` bytes: a corrupted
    // length must not trigger a huge allocation.
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(len)
        .read_to_end(&mut body)
        .map_err(|e| NedError::io("reading snapshot body", e))?;
    if body.len() as u64 != len {
        return Err(SnapshotError::Truncated { expected: len, actual: body.len() as u64 }.into());
    }
    let actual_checksum = fnv1a(&body);
    if actual_checksum != expected_checksum {
        return Err(SnapshotError::ChecksumMismatch {
            expected: expected_checksum,
            actual: actual_checksum,
        }
        .into());
    }
    let mut kb: KnowledgeBase =
        decode(&body).map_err(|e| NedError::Snapshot(SnapshotError::Codec(e.to_string())))?;
    kb.rebuild_indexes();
    Ok(kb)
}

/// Encodes one value as a v3 section frame: tag, body length, FNV-1a body
/// checksum, body.
fn write_section<W: Write, T: Serialize>(
    writer: &mut W,
    section_tag: u8,
    value: &T,
) -> Result<(), NedError> {
    let body =
        encode(value).map_err(|e| NedError::Snapshot(SnapshotError::Codec(e.to_string())))?;
    let mut prelude = [0u8; FRAME_PRELUDE_LEN];
    prelude[0] = section_tag; // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[1..9].copy_from_slice(&(body.len() as u64).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    prelude[9..17].copy_from_slice(&fnv1a(&body).to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer
        .write_all(&prelude)
        .and_then(|()| writer.write_all(&body))
        .map_err(|e| NedError::io("writing snapshot section", e))
}

/// Writes a v3 sectioned snapshot of a [`FrozenKb`]: the 8-byte header
/// followed by the six section frames (entities, dictionary, links,
/// keyphrases, weights, phrase_runs), each length-prefixed and individually
/// checksummed. The trailing phrase-run frame is optional on read.
pub fn write_frozen_snapshot<W: Write>(kb: &FrozenKb, mut writer: W) -> Result<(), NedError> {
    let mut header = [0u8; V3_HEADER_LEN];
    header[..6].copy_from_slice(MAGIC); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    header[6..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    writer.write_all(&header).map_err(|e| NedError::io("writing snapshot header", e))?;
    let (entities, dictionary, links, phrases, weights) = kb.sections();
    write_section(&mut writer, tag::ENTITIES, entities)?;
    write_section(&mut writer, tag::DICTIONARY, dictionary)?;
    write_section(&mut writer, tag::LINKS, links)?;
    write_section(&mut writer, tag::KEYPHRASES, phrases)?;
    write_section(&mut writer, tag::WEIGHTS, weights)?;
    write_section(&mut writer, tag::PHRASE_RUNS, kb.phrase_runs())?;
    Ok(())
}

/// Decoded v3 sections, accumulated while walking the frame stream.
#[derive(Debug, Default)]
struct Sections {
    entities: Option<Vec<Entity>>,
    dictionary: Option<FrozenDictionary>,
    links: Option<FrozenLinks>,
    keyphrases: Option<FrozenPhrases>,
    weights: Option<WeightModel>,
    /// Optional: absent in snapshots written before the phrase-run cache;
    /// `assemble` rebuilds it when `None`.
    phrase_runs: Option<PhraseRuns>,
}

impl Sections {
    fn take<T>(slot: Option<T>, section: &'static str) -> Result<T, NedError> {
        slot.ok_or_else(|| SnapshotError::MissingSection { section }.into())
    }

    fn into_frozen(self) -> Result<FrozenKb, NedError> {
        Ok(FrozenKb::assemble(
            Self::take(self.entities, "entities")?,
            Self::take(self.dictionary, "dictionary")?,
            Self::take(self.links, "links")?,
            Self::take(self.keyphrases, "keyphrases")?,
            Self::take(self.weights, "weights")?,
            self.phrase_runs,
        ))
    }
}

/// Reads one v3 section body, validating the frame's length and checksum.
fn read_section_body<R: Read>(
    reader: &mut R,
    section: &'static str,
    prelude: &[u8; FRAME_PRELUDE_LEN],
) -> Result<Vec<u8>, NedError> {
    let len = u64::from_le_bytes(prelude[1..9].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    let expected_checksum = u64::from_le_bytes(prelude[9..17].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
    let mut body = Vec::new();
    reader
        .by_ref()
        .take(len)
        .read_to_end(&mut body)
        .map_err(|e| NedError::io("reading snapshot section", e))?;
    if body.len() as u64 != len {
        return Err(SnapshotError::SectionTruncated {
            section,
            expected: len,
            actual: body.len() as u64,
        }
        .into());
    }
    let actual_checksum = fnv1a(&body);
    if actual_checksum != expected_checksum {
        return Err(SnapshotError::SectionChecksumMismatch {
            section,
            expected: expected_checksum,
            actual: actual_checksum,
        }
        .into());
    }
    Ok(body)
}

/// Reads a snapshot of either format into the read-optimized [`FrozenKb`].
///
/// - A **v3** stream decodes section-by-section straight into the flat
///   arrays, validating each frame's length and checksum independently
///   ([`SnapshotError::SectionTruncated`] /
///   [`SnapshotError::SectionChecksumMismatch`] name the failing section).
///   The five classic sections are required
///   ([`SnapshotError::MissingSection`]); the trailing phrase-run section
///   is optional (rebuilt when absent); an unrecognized tag is rejected
///   ([`SnapshotError::UnknownSection`]).
/// - A **v2** stream is decoded through the legacy path and frozen on load,
///   so old snapshots keep working across the migration.
///
/// Every decode path funnels through the same constructor, so the transient
/// indexes (`entity_by_name`, keyphrase inverted index) are always rebuilt —
/// a loaded KB is indistinguishable from a freshly frozen one.
pub fn read_frozen_snapshot<R: Read>(reader: R) -> Result<FrozenKb, NedError> {
    read_frozen_snapshot_observed(reader, &Metrics::disabled())
}

/// [`read_frozen_snapshot`] with load observability: records the read span,
/// a decoded-section counter, the v2-fallback counter, and per-section body
/// sizes as gauges (`snapshot_section_bytes_<name>`, plus
/// `snapshot_bytes_total`) into the given registry. Pass
/// [`Metrics::disabled`] (or call the plain reader) to skip accounting.
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
    if version == V2_FORMAT_VERSION {
        // Legacy monolithic body: finish the 24-byte header, decode the
        // mutable-shaped KB, and freeze it on the way in.
        let mut rest = [0u8; HEADER_LEN - V3_HEADER_LEN];
        let got = read_up_to(&mut reader, &mut rest)
            .map_err(|e| NedError::io("reading snapshot header", e))?;
        if got < rest.len() {
            return Err(SnapshotError::Truncated {
                expected: HEADER_LEN as u64,
                actual: (V3_HEADER_LEN + got) as u64,
            }
            .into());
        }
        let len = u64::from_le_bytes(rest[..8].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        let expected_checksum = u64::from_le_bytes(rest[8..16].try_into().unwrap_or([0; 8])); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        let kb = read_v2_rest(&mut reader, len, expected_checksum)?;
        metrics.counter(names::SNAPSHOT_V2_FALLBACK).inc();
        metrics.gauge(names::SNAPSHOT_BYTES_TOTAL).set(HEADER_LEN as u64 + len);
        return Ok(FrozenKb::freeze(&kb));
    }
    if version != FORMAT_VERSION {
        return Err(
            SnapshotError::UnsupportedVersion { found: version, supported: FORMAT_VERSION }.into()
        );
    }
    let mut sections = Sections::default();
    let sections_decoded = metrics.counter(names::SNAPSHOT_SECTIONS_DECODED);
    let mut total_bytes = V3_HEADER_LEN as u64;
    loop {
        let mut prelude = [0u8; FRAME_PRELUDE_LEN];
        let got = read_up_to(&mut reader, &mut prelude)
            .map_err(|e| NedError::io("reading snapshot section header", e))?;
        if got == 0 {
            break; // Clean end of the frame stream.
        }
        let Some(section) = section_name(prelude[0]) else { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            return Err(SnapshotError::UnknownSection { tag: prelude[0] }.into()); // ned-lint: allow(p1) — fixed-size buffer, constant bounds
        };
        if got < FRAME_PRELUDE_LEN {
            return Err(SnapshotError::SectionTruncated {
                section,
                expected: FRAME_PRELUDE_LEN as u64,
                actual: got as u64,
            }
            .into());
        }
        let body = read_section_body(&mut reader, section, &prelude)?;
        let section_gauge =
            format!("{}{section}", names::SNAPSHOT_SECTION_BYTES_PREFIX);
        metrics.gauge(&section_gauge).set(body.len() as u64);
        sections_decoded.inc();
        total_bytes += (FRAME_PRELUDE_LEN + body.len()) as u64;
        let codec_err =
            |e: CodecError| NedError::Snapshot(SnapshotError::Codec(format!("{section}: {e}")));
        match prelude[0] { // ned-lint: allow(p1) — fixed-size buffer, constant bounds
            tag::ENTITIES => sections.entities = Some(decode(&body).map_err(codec_err)?),
            tag::DICTIONARY => sections.dictionary = Some(decode(&body).map_err(codec_err)?),
            tag::LINKS => sections.links = Some(decode(&body).map_err(codec_err)?),
            tag::KEYPHRASES => sections.keyphrases = Some(decode(&body).map_err(codec_err)?),
            tag::WEIGHTS => sections.weights = Some(decode(&body).map_err(codec_err)?),
            tag::PHRASE_RUNS => sections.phrase_runs = Some(decode(&body).map_err(codec_err)?),
            other => return Err(SnapshotError::UnknownSection { tag: other }.into()),
        }
    }
    metrics.gauge(names::SNAPSHOT_BYTES_TOTAL).set(total_bytes);
    sections.into_frozen()
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

    #[test]
    fn roundtrip_preserves_kb() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        let kb2 = read_snapshot(buf.as_slice()).unwrap();
        assert_eq!(kb2.entity_count(), kb.entity_count());
        let a = kb2.entity_by_name("Alpha Band").unwrap();
        assert_eq!(kb2.entity(a).canonical_name, "Alpha Band");
        assert_eq!(kb2.candidates("Alpha").len(), 2);
        assert_eq!(kb2.keyphrases(a).len(), 1);
        // Weight model round-trips numerically.
        let w = kb2.word_id("rock").unwrap();
        assert_eq!(kb2.weights().keyword_npmi(a, w), kb.weights().keyword_npmi(a, w));
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_snapshot(&b"NOTAKB00rest_of_a_header_xx"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
        // Too short to even hold the magic.
        let err = read_snapshot(&b"AI"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
    }

    #[test]
    fn rejects_version_skew() {
        // A v1 snapshot started with the ASCII bytes "AIDAKB01".
        let mut old = Vec::from(&b"AIDAKB01"[..]);
        old.extend_from_slice(&[0u8; 32]);
        let err = read_snapshot(old.as_slice()).unwrap_err();
        match err {
            NedError::Snapshot(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(supported, V2_FORMAT_VERSION);
                assert_ne!(found, V2_FORMAT_VERSION);
            }
            other => panic!("expected version skew, got {other}"),
        }
        // The legacy reader only accepts v2 — a v3 header is version skew to
        // it (read_frozen_snapshot is the version-dispatching loader).
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        buf[6..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
        assert!(matches!(
            read_snapshot(buf.as_slice()),
            Err(NedError::Snapshot(SnapshotError::UnsupportedVersion { .. }))
        ));
        // A future version is rejected by both readers.
        let future = FORMAT_VERSION + 1;
        buf[6..8].copy_from_slice(&future.to_le_bytes());
        assert!(matches!(
            read_snapshot(buf.as_slice()),
            Err(NedError::Snapshot(SnapshotError::UnsupportedVersion { .. }))
        ));
        match read_frozen_snapshot(buf.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::UnsupportedVersion { found, supported }) => {
                assert_eq!(found, future);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected version skew, got {other}"),
        }
    }

    #[test]
    fn checksum_catches_body_corruption() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        for pos in HEADER_LEN..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0x01;
            assert!(
                matches!(
                    read_snapshot(corrupted.as_slice()),
                    Err(NedError::Snapshot(SnapshotError::ChecksumMismatch { .. }))
                ),
                "flip at byte {pos} was not caught"
            );
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
    fn corrupted_snapshots_error_instead_of_panicking() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        // Truncations at every prefix length must error cleanly.
        for cut in 0..buf.len() {
            assert!(read_snapshot(&buf[..cut]).is_err(), "cut at {cut} did not error");
        }
        // A corrupted length header must not allocate terabytes.
        let mut huge = buf.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_snapshot(huge.as_slice()),
            Err(NedError::Snapshot(SnapshotError::Truncated { .. }))
        ));
        // Single-byte corruptions anywhere (header or body) must error, not
        // panic or decode silently garbled data.
        for pos in 0..buf.len() {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0xff;
            assert!(read_snapshot(corrupted.as_slice()).is_err(), "flip at {pos} slipped through");
        }
    }

    #[test]
    fn codec_rejects_truncated_input() {
        let bytes = encode(&"a longer string".to_string()).unwrap();
        assert!(decode::<String>(&bytes[..bytes.len() - 2]).is_err());
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
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), FORMAT_VERSION);
        let fz2 = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_frozen_matches(&fz2, &kb);
        // Numeric weight content survives the section framing.
        let a = kb.entity_by_name("Alpha Band").unwrap();
        let w = kb.word_id("rock").unwrap();
        assert_eq!(fz2.weights().keyword_npmi(a, w), kb.weights().keyword_npmi(a, w));
    }

    #[test]
    fn v2_snapshots_freeze_on_load() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        assert_eq!(u16::from_le_bytes([buf[6], buf[7]]), V2_FORMAT_VERSION);
        let fz = read_frozen_snapshot(buf.as_slice()).unwrap();
        assert_frozen_matches(&fz, &kb);
    }

    #[test]
    fn v3_section_corruption_names_the_section() {
        let kb = sample_kb();
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
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
        // Truncations at every prefix length must error cleanly too — with
        // one exception: a cut exactly at the start of the trailing
        // phrase-run frame looks like a clean end-of-stream, and that
        // section is optional by design (rebuilt on load).
        let phrase_runs_start = frame_starts(&buf).pop().unwrap();
        for cut in 0..buf.len() {
            if cut == phrase_runs_start {
                let fz2 = read_frozen_snapshot(&buf[..cut]).unwrap();
                assert_frozen_matches(&fz2, &kb);
                continue;
            }
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

    #[test]
    fn v3_missing_section_is_reported() {
        let kb = sample_kb();
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
        // Drop the trailing frames from the weights section on (the
        // phrase-run frame alone is optional; weights are not).
        let starts = frame_starts(&buf);
        let weights_start = starts[starts.len() - 2];
        match read_frozen_snapshot(&buf[..weights_start]).unwrap_err() {
            NedError::Snapshot(SnapshotError::MissingSection { section }) => {
                assert_eq!(section, "weights");
            }
            other => panic!("expected missing section, got {other}"),
        }
    }

    #[test]
    fn v3_phrase_run_section_is_optional_and_roundtrips() {
        let kb = sample_kb();
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
        let starts = frame_starts(&buf);
        assert_eq!(starts.len(), 6, "expected six frames");
        assert_eq!(buf[*starts.last().unwrap()], 6, "phrase-run frame tag");

        // Reading the full stream decodes the persisted runs; reading a
        // stream cut before the phrase-run frame rebuilds them. Both paths
        // must agree exactly with the freshly frozen structure.
        let with_section = read_frozen_snapshot(buf.as_slice()).unwrap();
        let without_section =
            read_frozen_snapshot(&buf[..*starts.last().unwrap()]).unwrap();
        assert_eq!(with_section.phrase_runs(), fz.phrase_runs());
        assert_eq!(without_section.phrase_runs(), fz.phrase_runs());
        assert_eq!(
            with_section.stats().phrase_run_bytes,
            without_section.stats().phrase_run_bytes
        );

        // A shape-mismatched phrase-run section (decodes fine but does not
        // fit the KB's dimensions) is discarded and rebuilt, not trusted.
        let mut swapped = Vec::new();
        write_frozen_snapshot(&fz, &mut swapped).unwrap();
        let foreign = {
            let other = {
                let mut b = KbBuilder::new();
                let e = b.add_entity("Lone", EntityKind::Other);
                b.add_keyphrase(e, "single phrase", 1);
                b.build()
            };
            FrozenKb::freeze(&other).phrase_runs().clone()
        };
        swapped.truncate(*starts.last().unwrap());
        let body = encode(&foreign).unwrap();
        let mut prelude = [0u8; FRAME_PRELUDE_LEN];
        prelude[0] = 6;
        prelude[1..9].copy_from_slice(&(body.len() as u64).to_le_bytes());
        prelude[9..17].copy_from_slice(&fnv1a(&body).to_le_bytes());
        swapped.extend_from_slice(&prelude);
        swapped.extend_from_slice(&body);
        let rebuilt = read_frozen_snapshot(swapped.as_slice()).unwrap();
        assert_eq!(rebuilt.phrase_runs(), fz.phrase_runs());
    }

    #[test]
    fn v3_unknown_tag_is_rejected() {
        let kb = sample_kb();
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
        let mut corrupted = buf.clone();
        corrupted[V3_HEADER_LEN] = 0x77; // entities frame tag → nonsense
        match read_frozen_snapshot(corrupted.as_slice()).unwrap_err() {
            NedError::Snapshot(SnapshotError::UnknownSection { tag }) => assert_eq!(tag, 0x77),
            other => panic!("expected unknown section, got {other}"),
        }
    }

    #[test]
    fn observed_read_records_section_sizes() {
        let kb = sample_kb();
        let fz = FrozenKb::freeze(&kb);
        let mut buf = Vec::new();
        write_frozen_snapshot(&fz, &mut buf).unwrap();
        let m = Metrics::new();
        let fz2 = read_frozen_snapshot_observed(buf.as_slice(), &m).unwrap();
        assert_frozen_matches(&fz2, &kb);
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::SNAPSHOT_SECTIONS_DECODED), 6);
        assert_eq!(snap.counter(names::SNAPSHOT_V2_FALLBACK), 0);
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
    fn observed_read_counts_v2_fallback() {
        let kb = sample_kb();
        let mut buf = Vec::new();
        write_snapshot(&kb, &mut buf).unwrap();
        let m = Metrics::new();
        let fz = read_frozen_snapshot_observed(buf.as_slice(), &m).unwrap();
        assert_frozen_matches(&fz, &kb);
        let snap = m.snapshot();
        assert_eq!(snap.counter(names::SNAPSHOT_V2_FALLBACK), 1);
        assert_eq!(snap.counter(names::SNAPSHOT_SECTIONS_DECODED), 0);
        assert_eq!(snap.gauge(names::SNAPSHOT_BYTES_TOTAL), buf.len() as u64);
    }

    #[test]
    fn v3_rejects_bad_magic() {
        let err = read_frozen_snapshot(&b"NOTAKB03"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
        let err = read_frozen_snapshot(&b"AI"[..]).unwrap_err();
        assert!(matches!(err, NedError::Snapshot(SnapshotError::BadMagic)), "{err}");
    }
}
