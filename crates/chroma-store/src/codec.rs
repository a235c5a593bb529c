//! A compact, dependency-free binary codec for object states.
//!
//! Chroma stores object states as byte buffers; this module provides the
//! bridge from typed values via serde. The format is non-self-describing
//! (like bincode): primitives are little-endian fixed width, lengths are
//! `u64` prefixes, enum variants are `u32` indices. Both ends must agree
//! on the type, which they always do — the store only ever decodes into
//! the type that encoded the buffer.
//!
//! # Examples
//!
//! ```
//! use chroma_store::codec::{from_bytes, to_bytes};
//! use serde::{Deserialize, Serialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Account {
//!     owner: String,
//!     balance: i64,
//! }
//!
//! # fn main() -> Result<(), chroma_store::codec::CodecError> {
//! let account = Account { owner: "ada".into(), balance: 120 };
//! let bytes = to_bytes(&account)?;
//! let back: Account = from_bytes(&bytes)?;
//! assert_eq!(back, account);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;

use serde::de::{self, DeserializeOwned, IntoDeserializer, Visitor};
use serde::ser::{self, Serialize};

/// Errors produced while encoding or decoding object states.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before the value was complete.
    UnexpectedEnd,
    /// A length prefix or variant index was out of range.
    InvalidValue(String),
    /// Trailing bytes remained after decoding the value.
    TrailingBytes(usize),
    /// The format cannot represent the requested shape (for example
    /// `deserialize_any` on this non-self-describing format).
    Unsupported(&'static str),
    /// An error message raised by serde itself.
    Message(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::InvalidValue(what) => write!(f, "invalid encoded value: {what}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
            CodecError::Unsupported(what) => write!(f, "unsupported operation: {what}"),
            CodecError::Message(msg) => f.write_str(msg),
        }
    }
}

impl Error for CodecError {}

impl ser::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

impl de::Error for CodecError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        CodecError::Message(msg.to_string())
    }
}

/// Encodes a value to bytes.
///
/// # Errors
///
/// Returns [`CodecError`] if the value cannot be represented (for
/// example a sequence of unknown length).
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    encode_into(value, &mut out)?;
    Ok(out)
}

/// Encodes a value, appending its bytes to `out` (on error `out` may
/// hold a partial encoding).
pub(crate) fn encode_into<T: Serialize + ?Sized>(
    value: &T,
    out: &mut Vec<u8>,
) -> Result<(), CodecError> {
    let mut encoder = Encoder {
        out: std::mem::take(out),
    };
    let result = value.serialize(&mut encoder);
    *out = encoder.out;
    result
}

/// Decodes a value from bytes produced by [`to_bytes`] for the same type.
///
/// # Errors
///
/// Returns [`CodecError`] on truncated input, invalid prefixes, or
/// trailing bytes.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut decoder = Decoder { input: bytes };
    let value = T::deserialize(&mut decoder)?;
    if decoder.input.is_empty() {
        Ok(value)
    } else {
        Err(CodecError::TrailingBytes(decoder.input.len()))
    }
}

struct Encoder {
    out: Vec<u8>,
}

impl Encoder {
    fn put_len(&mut self, len: usize) {
        self.out.extend_from_slice(&(len as u64).to_le_bytes());
    }
}

macro_rules! encode_le {
    ($method:ident, $ty:ty) => {
        fn $method(self, v: $ty) -> Result<(), CodecError> {
            self.out.extend_from_slice(&v.to_le_bytes());
            Ok(())
        }
    };
}

impl<'a> ser::Serializer for &'a mut Encoder {
    type Ok = ();
    type Error = CodecError;
    type SerializeSeq = Compound<'a>;
    type SerializeTuple = Compound<'a>;
    type SerializeTupleStruct = Compound<'a>;
    type SerializeTupleVariant = Compound<'a>;
    type SerializeMap = Compound<'a>;
    type SerializeStruct = Compound<'a>;
    type SerializeStructVariant = Compound<'a>;

    fn serialize_bool(self, v: bool) -> Result<(), CodecError> {
        self.out.push(u8::from(v));
        Ok(())
    }

    encode_le!(serialize_i8, i8);
    encode_le!(serialize_i16, i16);
    encode_le!(serialize_i32, i32);
    encode_le!(serialize_i64, i64);
    encode_le!(serialize_i128, i128);
    encode_le!(serialize_u8, u8);
    encode_le!(serialize_u16, u16);
    encode_le!(serialize_u32, u32);
    encode_le!(serialize_u64, u64);
    encode_le!(serialize_u128, u128);
    encode_le!(serialize_f32, f32);
    encode_le!(serialize_f64, f64);

    fn serialize_char(self, v: char) -> Result<(), CodecError> {
        self.serialize_u32(v as u32)
    }

    fn serialize_str(self, v: &str) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<(), CodecError> {
        self.put_len(v.len());
        self.out.extend_from_slice(v);
        Ok(())
    }

    fn serialize_none(self) -> Result<(), CodecError> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<(), CodecError> {
        self.out.push(1);
        value.serialize(self)
    }

    fn serialize_unit(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), CodecError> {
        Ok(())
    }

    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        self.serialize_u32(variant_index)?;
        value.serialize(self)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<Compound<'a>, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("sequences of unknown length"))?;
        self.put_len(len);
        Ok(Compound { encoder: self })
    }

    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a>, CodecError> {
        Ok(Compound { encoder: self })
    }

    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        Ok(Compound { encoder: self })
    }

    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        self.out.extend_from_slice(&variant_index.to_le_bytes());
        Ok(Compound { encoder: self })
    }

    fn serialize_map(self, len: Option<usize>) -> Result<Compound<'a>, CodecError> {
        let len = len.ok_or(CodecError::Unsupported("maps of unknown length"))?;
        self.put_len(len);
        Ok(Compound { encoder: self })
    }

    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        Ok(Compound { encoder: self })
    }

    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a>, CodecError> {
        self.out.extend_from_slice(&variant_index.to_le_bytes());
        Ok(Compound { encoder: self })
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Serializer state for compound shapes; every element serializes in
/// order with no framing beyond the already-written length prefix.
pub struct Compound<'a> {
    encoder: &'a mut Encoder,
}

macro_rules! impl_compound {
    ($trait:path, $fn:ident) => {
        impl<'a> $trait for Compound<'a> {
            type Ok = ();
            type Error = CodecError;

            fn $fn<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
                value.serialize(&mut *self.encoder)
            }

            fn end(self) -> Result<(), CodecError> {
                Ok(())
            }
        }
    };
}

impl_compound!(ser::SerializeSeq, serialize_element);
impl_compound!(ser::SerializeTuple, serialize_element);
impl_compound!(ser::SerializeTupleStruct, serialize_field);
impl_compound!(ser::SerializeTupleVariant, serialize_field);

impl ser::SerializeMap for Compound<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), CodecError> {
        key.serialize(&mut *self.encoder)
    }

    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), CodecError> {
        value.serialize(&mut *self.encoder)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStruct for Compound<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut *self.encoder)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

impl ser::SerializeStructVariant for Compound<'_> {
    type Ok = ();
    type Error = CodecError;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), CodecError> {
        value.serialize(&mut *self.encoder)
    }

    fn end(self) -> Result<(), CodecError> {
        Ok(())
    }
}

struct Decoder<'de> {
    input: &'de [u8],
}

impl<'de> Decoder<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], CodecError> {
        if self.input.len() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn take_len(&mut self) -> Result<usize, CodecError> {
        let bytes = self.take(8)?;
        let len = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
        usize::try_from(len).map_err(|_| CodecError::InvalidValue(format!("length {len}")))
    }
}

macro_rules! decode_le {
    ($method:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
            let bytes = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(bytes.try_into().expect("sized")))
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Decoder<'de> {
    type Error = CodecError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported(
            "deserialize_any on a non-self-describing format",
        ))
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(CodecError::InvalidValue(format!("bool byte {other}"))),
        }
    }

    decode_le!(deserialize_i8, visit_i8, i8, 1);
    decode_le!(deserialize_i16, visit_i16, i16, 2);
    decode_le!(deserialize_i32, visit_i32, i32, 4);
    decode_le!(deserialize_i64, visit_i64, i64, 8);
    decode_le!(deserialize_i128, visit_i128, i128, 16);
    decode_le!(deserialize_u8, visit_u8, u8, 1);
    decode_le!(deserialize_u16, visit_u16, u16, 2);
    decode_le!(deserialize_u32, visit_u32, u32, 4);
    decode_le!(deserialize_u64, visit_u64, u64, 8);
    decode_le!(deserialize_u128, visit_u128, u128, 16);
    decode_le!(deserialize_f32, visit_f32, f32, 4);
    decode_le!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let bytes = self.take(4)?;
        let raw = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        let c = char::from_u32(raw)
            .ok_or_else(|| CodecError::InvalidValue(format!("char scalar {raw:#x}")))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes)
            .map_err(|e| CodecError::InvalidValue(format!("utf-8: {e}")))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        let bytes = self.take(len)?;
        visitor.visit_borrowed_bytes(bytes)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(CodecError::InvalidValue(format!("option tag {other}"))),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_seq(Counted {
            decoder: self,
            remaining: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_seq(Counted {
            decoder: self,
            remaining: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, CodecError> {
        let len = self.take_len()?;
        visitor.visit_map(Counted {
            decoder: self,
            remaining: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        visitor.visit_enum(Enum { decoder: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported("identifier deserialization"))
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, CodecError> {
        Err(CodecError::Unsupported(
            "ignored_any on a non-self-describing format",
        ))
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    decoder: &'a mut Decoder<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.decoder).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = CodecError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, CodecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.decoder).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, CodecError> {
        seed.deserialize(&mut *self.decoder)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct Enum<'a, 'de> {
    decoder: &'a mut Decoder<'de>,
}

impl<'de> de::EnumAccess<'de> for Enum<'_, 'de> {
    type Error = CodecError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), CodecError> {
        let bytes = self.decoder.take(4)?;
        let index = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for Enum<'_, 'de> {
    type Error = CodecError;

    fn unit_variant(self) -> Result<(), CodecError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, CodecError> {
        seed.deserialize(self.decoder)
    }

    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.decoder, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, CodecError> {
        de::Deserializer::deserialize_tuple(self.decoder, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::HashMap;

    fn round_trip<T>(value: T)
    where
        T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug,
    {
        let bytes = to_bytes(&value).expect("encode");
        let back: T = from_bytes(&bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(true);
        round_trip(false);
        round_trip(-5i8);
        round_trip(12345i16);
        round_trip(-7_000_000i32);
        round_trip(i64::MIN);
        round_trip(u64::MAX);
        round_trip(3.5f32);
        round_trip(-2.25f64);
        round_trip('λ');
        round_trip(String::from("hello, world"));
        round_trip(String::new());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<String>::new());
        round_trip(Some(42u8));
        round_trip(Option::<u8>::None);
        round_trip((1u8, String::from("x"), vec![true, false]));
        let mut map = HashMap::new();
        map.insert(String::from("a"), 1i64);
        map.insert(String::from("b"), -2i64);
        round_trip(map);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Shape {
        Point,
        Circle(f64),
        Rect { w: u32, h: u32 },
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        name: String,
        shapes: Vec<Shape>,
        tag: Option<Box<Nested>>,
    }

    #[test]
    fn enums_and_nested_structs_round_trip() {
        round_trip(Shape::Point);
        round_trip(Shape::Circle(2.5));
        round_trip(Shape::Rect { w: 3, h: 4 });
        round_trip(Nested {
            name: "outer".into(),
            shapes: vec![Shape::Point, Shape::Rect { w: 1, h: 2 }],
            tag: Some(Box::new(Nested {
                name: "inner".into(),
                shapes: vec![],
                tag: None,
            })),
        });
    }

    #[test]
    fn truncated_input_is_an_error() {
        let bytes = to_bytes(&12345u64).unwrap();
        let err = from_bytes::<u64>(&bytes[..4]).unwrap_err();
        assert_eq!(err, CodecError::UnexpectedEnd);
    }

    #[test]
    fn trailing_bytes_are_an_error() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0xFF);
        let err = from_bytes::<u8>(&bytes).unwrap_err();
        assert_eq!(err, CodecError::TrailingBytes(1));
    }

    #[test]
    fn invalid_bool_is_an_error() {
        let err = from_bytes::<bool>(&[7]).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue(_)));
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        // length 1, byte 0xFF: not valid UTF-8.
        let mut bytes = 1u64.to_le_bytes().to_vec();
        bytes.push(0xFF);
        let err = from_bytes::<String>(&bytes).unwrap_err();
        assert!(matches!(err, CodecError::InvalidValue(_)));
    }

    #[test]
    fn display_is_informative() {
        assert!(CodecError::UnexpectedEnd.to_string().contains("end"));
        assert!(CodecError::TrailingBytes(3).to_string().contains('3'));
    }
}
