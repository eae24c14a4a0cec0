//! A dependency-free shim of the `serde` facade, fixed to JSON.
//!
//! Upstream serde separates the data model from the format through
//! visitor traits. This shim has one format, so its traits are the codec:
//! [`Serialize`] appends a value's compact JSON to a [`Writer`] and
//! [`Deserialize`] reads one value from a [`Reader`] over the borrowed
//! input. No document tree is built in either direction. The companion
//! `serde_json` shim only wraps these in its `to_*`/`from_*` functions.
//!
//! This supports exactly what the workspace relies on: derived impls over
//! structs and enums of primitives, strings, collections and nested serde
//! types, including the internally tagged `#[serde(tag = "...")]` enum
//! form, and hand-written impls such as a base64-string envelope.
//!
//! Objects come out with their keys in ascending byte order, the order a
//! `BTreeMap<String, _>` iterates in. When reading, a missing `Option`
//! field is `None`, unknown keys are skipped (and still validated), and
//! the last of repeated keys wins.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

pub use serde_derive::{Deserialize, Serialize};

mod read;
mod write;

pub use read::Reader;
pub use write::{ArrayWriter, ObjectWriter, Writer};

use read::Number;

/// Error for malformed JSON or for a value of the wrong shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeError {
    msg: String,
    syntax: bool,
}

impl DeError {
    /// A shape error: well-formed JSON that does not fit the type.
    pub fn msg(msg: impl fmt::Display) -> Self {
        DeError { msg: msg.to_string(), syntax: false }
    }

    /// A syntax error: the input is not well-formed JSON.
    pub(crate) fn syntax(msg: impl fmt::Display) -> Self {
        DeError { msg: msg.to_string(), syntax: true }
    }

    /// Whether the input was malformed, rather than of the wrong shape.
    pub fn is_syntax(&self) -> bool {
        self.syntax
    }

    /// The message, without the `Display` prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Types that write themselves as JSON.
pub trait Serialize {
    /// Appends `self`'s compact JSON to `out`.
    fn serialize(&self, out: &mut Writer);

    /// Appends `self` as a JSON object that also holds `tag: variant`, as
    /// the payload of an internally tagged enum's newtype variant. Only
    /// types that write an object support this.
    ///
    /// # Panics
    ///
    /// The default panics: the type does not write an object.
    fn serialize_tagged(&self, out: &mut Writer, tag: &str, variant: &str) {
        let _ = out;
        panic!("internally tagged variant `{variant}` (tag `{tag}`) must serialize to an object")
    }
}

/// Types that read themselves from JSON.
pub trait Deserialize: Sized {
    /// Reads one value of this type from `input`.
    ///
    /// # Errors
    ///
    /// Fails on malformed JSON or a value of the wrong shape.
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError>;

    /// The value of a struct field whose key is absent, if the type has
    /// one (`None` for an `Option`); otherwise the field is required.
    fn absent() -> Option<Self> {
        None
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, out: &mut Writer) {
        (**self).serialize(out)
    }

    fn serialize_tagged(&self, out: &mut Writer, tag: &str, variant: &str) {
        (**self).serialize_tagged(out, tag, variant)
    }
}

macro_rules! impl_serde_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.u128(*self as u128)
            }
        }

        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
                match input.number(stringify!($t))? {
                    Number::Uint(u) => <$t>::try_from(u)
                        .map_err(|_| DeError::msg(format!("{u} out of range for {}", stringify!($t)))),
                    other => Err(DeError::msg(format!(
                        "expected {} got {other:?}", stringify!($t)
                    ))),
                }
            }
        }
    )*};
}

impl_serde_unsigned!(u8, u16, u32, u64, u128, usize);

macro_rules! impl_serde_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.i128(*self as i128)
            }
        }

        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
                let wide: i128 = match input.number(stringify!($t))? {
                    Number::Uint(u) => i128::try_from(u)
                        .map_err(|_| DeError::msg(format!("{u} out of range for {}", stringify!($t))))?,
                    Number::Int(i) => i,
                    other => {
                        return Err(DeError::msg(format!(
                            "expected {} got {other:?}", stringify!($t)
                        )))
                    }
                };
                <$t>::try_from(wide)
                    .map_err(|_| DeError::msg(format!("{wide} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_serde_signed!(i8, i16, i32, i64, i128, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self, out: &mut Writer) {
                out.f64(*self as f64)
            }
        }

        impl Deserialize for $t {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
                Ok(match input.number(stringify!($t))? {
                    Number::Float(f) => f as $t,
                    Number::Uint(u) => u as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn serialize(&self, out: &mut Writer) {
        out.bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        input.bool()
    }
}

impl Serialize for String {
    fn serialize(&self, out: &mut Writer) {
        out.str(self)
    }
}

impl Deserialize for String {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        input.str().map(String::from)
    }
}

impl Serialize for str {
    fn serialize(&self, out: &mut Writer) {
        out.str(self)
    }
}

impl Serialize for char {
    fn serialize(&self, out: &mut Writer) {
        out.str(self.encode_utf8(&mut [0; 4]))
    }
}

impl Deserialize for char {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let s = input.str()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::msg(format!("expected single-char string got {s:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, out: &mut Writer) {
        match self {
            Some(v) => v.serialize(out),
            None => out.null(),
        }
    }

}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        if input.null()? {
            return Ok(None);
        }
        T::deserialize(input).map(Some)
    }

    fn absent() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        input.array(|r| {
            items.push(T::deserialize(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let items = Vec::<T>::deserialize(input)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError::msg(format!("expected array of {N} elements, got {len}")))
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn serialize(&self, out: &mut Writer) {
        let mut object = out.object();
        for (k, v) in self {
            object.field(k, v);
        }
        object.end();
    }

}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        // A repeated key keeps its last value; the first key in order
        // whose value has the wrong shape decides the error.
        let mut entries = BTreeMap::new();
        input.object(|r, key| {
            entries.insert(key.to_owned(), r.read_field::<V>()?);
            Ok(())
        })?;
        entries.into_iter().map(|(k, v)| v.map(|v| (k, v))).collect()
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize(&self, out: &mut Writer) {
        out.seq(self)
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut items = BTreeSet::new();
        input.array(|r| {
            items.insert(T::deserialize(r)?);
            Ok(())
        })?;
        Ok(items)
    }
}

macro_rules! impl_serde_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize(&self, out: &mut Writer) {
                let mut array = out.array();
                $(array.element(&self.$idx);)+
                array.end();
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(input: &mut Reader<'_>) -> Result<Self, DeError> {
                let mut slots = ($(None::<$name>,)+);
                let mut len = 0;
                input.array(|r| {
                    match len {
                        $($idx => slots.$idx = Some($name::deserialize(r)?),)+
                        _ => r.skip_value()?,
                    }
                    len += 1;
                    Ok(())
                })?;
                let expected = [$($idx),+].len();
                let missing = || DeError::msg(format!("expected {expected}-tuple, got {len} elements"));
                if len != expected {
                    return Err(missing());
                }
                Ok(($(slots.$idx.ok_or_else(missing)?,)+))
            }
        }
    )*};
}

impl_serde_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

/// Support for the generated derive code. Not a stable API, matching
/// upstream's convention of an out-of-contract module.
#[doc(hidden)]
pub mod __private {
    pub use crate::{DeError, Deserialize, Reader, Serialize, Writer};

    /// The value of a struct field after its object has been read:
    /// the last value under `key`, or the type's absent value.
    pub fn field<T: Deserialize>(
        slot: Option<Result<T, DeError>>,
        key: &str,
    ) -> Result<T, DeError> {
        match slot {
            Some(Ok(value)) => Ok(value),
            Some(Err(e)) => Err(DeError::msg(format!("field `{key}`: {e}"))),
            None => T::absent().ok_or_else(|| DeError::msg(format!("missing field `{key}`"))),
        }
    }

    /// The error for a variant name `ty` does not have.
    pub fn unknown_variant(ty: &str, variant: &str) -> DeError {
        DeError::msg(format!("unknown {ty} variant `{variant}`"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = Writer::new();
        value.serialize(&mut out);
        String::from_utf8(out.into_bytes()).unwrap()
    }

    fn decode<T: Deserialize>(text: &str) -> Result<T, DeError> {
        let mut input = Reader::new(text);
        let value = T::deserialize(&mut input)?;
        input.end()?;
        Ok(value)
    }

    #[test]
    fn primitives_round_trip() {
        assert_eq!(decode::<u64>(&encode(&42u64)), Ok(42));
        assert_eq!(decode::<i32>(&encode(&-7i32)), Ok(-7));
        assert_eq!(decode::<bool>(&encode(&true)), Ok(true));
        let giant = u128::MAX - 3;
        assert_eq!(decode::<u128>(&encode(&giant)), Ok(giant));
        assert_eq!(decode::<char>(&encode(&'é')), Ok('é'));
    }

    #[test]
    fn integers_write_in_decimal() {
        for v in [0u128, 7, 10, 99, u64::MAX as u128, u64::MAX as u128 + 1, u128::MAX] {
            assert_eq!(encode(&v), v.to_string());
        }
        for v in [0i128, -1, -10, i64::MIN as i128, i128::MIN, i128::MAX] {
            assert_eq!(encode(&v), v.to_string());
        }
    }

    #[test]
    fn option_none_from_missing() {
        let missing: Option<u8> = __private::field(None, "absent").unwrap();
        assert_eq!(missing, None);
        let err = __private::field::<u8>(None, "absent").unwrap_err();
        assert!(format!("{err}").contains("missing field"));
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u8, "a".to_string()), (2, "b".to_string())];
        assert_eq!(decode::<Vec<(u8, String)>>(&encode(&v)), Ok(v));
        let arr = [9u8; 4];
        assert_eq!(decode::<[u8; 4]>(&encode(&arr)), Ok(arr));
        assert!(decode::<[u8; 4]>("[1,2,3]").is_err());
        assert!(decode::<(u8, u8)>("[1,2,3]").is_err());
        let mut map = BTreeMap::new();
        map.insert("k".to_string(), 1.5f64);
        map.insert("a\"b".to_string(), -2.0);
        assert_eq!(encode(&map), r#"{"a\"b":-2.0,"k":1.5}"#);
        assert_eq!(decode::<BTreeMap<String, f64>>(&encode(&map)), Ok(map));
    }

    #[test]
    fn map_keeps_the_last_of_repeated_keys() {
        let map: BTreeMap<String, u8> = decode(r#"{"a":"x","b":1,"a":2}"#).unwrap();
        assert_eq!(map.into_iter().collect::<Vec<_>>(), [("a".into(), 2), ("b".into(), 1)]);
        assert!(decode::<BTreeMap<String, u8>>(r#"{"a":2,"a":"x"}"#).is_err());
    }

    #[test]
    fn tagged_object_places_the_tag_in_key_order() {
        let tagged = |tag: &str, keys: &[&str]| {
            let mut out = Writer::new();
            let mut object = out.tagged_object(tag, "V");
            for (i, key) in keys.iter().enumerate() {
                object.field(key, &i);
            }
            object.end();
            String::from_utf8(out.into_bytes()).unwrap()
        };
        assert_eq!(tagged("m", &["a", "z"]), r#"{"a":0,"m":"V","z":1}"#);
        assert_eq!(tagged("0", &["a", "z"]), r#"{"0":"V","a":0,"z":1}"#);
        assert_eq!(tagged("z", &["a", "z"]), r#"{"a":0,"z":"V"}"#, "the tag replaces a same-named key");
        assert_eq!(tagged("t", &[]), r#"{"t":"V"}"#);
    }

    #[test]
    fn word_scan_finds_the_first_quote_or_backslash() {
        // Every byte value at every offset of inputs that straddle whole
        // words, after fillers that sit next to the tested values.
        for filler in [b'a', b' ', b'!', b'#', b'[', b']', 0x7f, 0x80, 0xc3, 0xff] {
            for len in 1..20 {
                for at in 0..len {
                    for b in 0..=255u8 {
                        let mut bytes = vec![filler; len];
                        bytes[at] = b;
                        let first = bytes.iter().position(|&c| c == b'"' || c == b'\\');
                        assert_eq!(read::find_quote_or_backslash(&bytes), first);
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_shape_reports_type() {
        let err = decode::<u8>("\"no\"").unwrap_err();
        assert!(format!("{err}").contains("expected u8"));
        assert!(!err.is_syntax());
        assert!(decode::<u8>("1x").unwrap_err().is_syntax());
    }
}
