//! Minimal, self-contained substitute for the `serde` crate.
//!
//! The build environment of this repository has no access to crates.io, so
//! the workspace vendors the narrow slice of serde it actually uses, and that
//! slice is JSON and nothing else:
//!
//! * **Out:** [`Serialize::write_json`] writes a value as JSON text straight
//!   into the output buffer through a [`Writer`] — no intermediate tree, no
//!   allocation per key or per number. `serde_json::to_string` and
//!   `to_string_pretty` are that one call with a compact or a pretty writer;
//!   there is no other way a value becomes JSON text.
//! * **In:** [`Deserialize::deserialize`] reads a value straight out of the
//!   text through a [`Reader`], a pull parser: a struct asks for its map's
//!   keys one at a time, compares each in place against its field names and
//!   reads the value into the field — no key `String`, no [`Value`] tree.
//!   Keys arrive in any order; an unknown key's value is skipped (and still
//!   parsed), a key's first occurrence wins, and a `#[serde(default)]` field
//!   missing from the map is `Default::default()`. `serde_json::from_str` is
//!   that one call plus the check that nothing follows the value. The tree
//!   the reader replaced cost more than the parse itself: two thirds of a
//!   `/v1/search` request's decode went into building and dropping it.
//!
//! The derive macros (re-exported from the sibling `serde_derive` crate) cover
//! named-field structs, tuple structs and enums with unit or struct variants,
//! plus the `#[serde(skip)]`, `#[serde(default)]`, `#[serde(with = "module")]`
//! and `#[serde(skip_serializing_if = "path")]` field attributes. [`Value`]
//! is an ordinary `Deserialize` type for callers that want the tree.
//!
//! This is *not* the serde data model: there are no `Serializer` /
//! `Deserializer` visitors and no format but JSON. A `with` module implements
//! `fn serialize(&T, &mut Writer<'_>)` and
//! `fn deserialize(&mut Reader<'_>) -> Result<T, Error>`; moving to the real
//! serde means rewriting those modules and the hand-written impls (three in
//! this workspace) against its visitor API.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

mod reader;
mod writer;

pub use reader::{Elements, Entries, Number, Reader, MAX_DEPTH};
pub use serde_derive::{Deserialize, Serialize};
pub use writer::{Compound, Writer};

/// A self-describing tree value, structurally equivalent to JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Non-negative integer.
    UInt(u64),
    /// Negative (or any signed) integer.
    Int(i64),
    /// Floating point number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Seq(Vec<Value>),
    /// Object; insertion order is preserved.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// The entries of a map value, or `None` for any other variant.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements of a sequence value, or `None` for any other variant.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }
}

/// Error produced while reading JSON text into a typed structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    /// Creates an error carrying `message`.
    pub fn custom(message: impl fmt::Display) -> Self {
        Error(message.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// Looks up a required field in a struct map.
pub fn field<'a>(entries: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

/// Types that can be written as JSON text.
pub trait Serialize {
    /// Writes `self` as one JSON value through `writer`.
    fn write_json(&self, writer: &mut Writer<'_>);
}

/// Types that can be read from JSON text.
pub trait Deserialize: Sized {
    /// Reads one JSON value of this type from `reader`, leaving it right
    /// after the value.
    ///
    /// # Errors
    ///
    /// The text is not well-formed JSON, or does not have the shape `Self`
    /// expects.
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn write_json(&self, writer: &mut Writer<'_>) {
        match self {
            Value::Null => writer.null(),
            Value::Bool(b) => writer.bool(*b),
            Value::UInt(u) => writer.u64(*u),
            Value::Int(i) => writer.i64(*i),
            Value::Float(f) => writer.f64(*f),
            Value::Str(s) => writer.str(s),
            Value::Seq(items) => items.write_json(writer),
            Value::Map(entries) => {
                let mut map = writer.map();
                for (key, item) in entries {
                    item.write_json(map.key_str(key));
                }
                map.end();
            }
        }
    }
}

impl Deserialize for Value {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        Ok(match reader.peek()? {
            b'{' => {
                let mut entries = reader.map()?;
                let mut map = Vec::new();
                while let Some(key) = entries.key()? {
                    map.push((key.into_owned(), Value::deserialize(entries.value())?));
                }
                Value::Map(map)
            }
            b'[' => Value::Seq(Vec::deserialize(reader)?),
            b'"' => Value::Str(reader.str()?.into_owned()),
            b't' | b'f' => Value::Bool(reader.bool()?),
            b'n' => {
                reader.null()?;
                Value::Null
            }
            b'-' | b'0'..=b'9' => match reader.number()? {
                Number::UInt(u) => Value::UInt(u),
                Number::Int(i) => Value::Int(i),
                Number::Float(f) => Value::Float(f),
            },
            _ => return Err(reader.unexpected("a value")),
        })
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, writer: &mut Writer<'_>) {
                writer.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                let raw = match reader.number()? {
                    Number::UInt(u) => u,
                    Number::Int(i) if i >= 0 => i as u64,
                    Number::Float(f) if f.fract() == 0.0 && f >= 0.0 => f as u64,
                    other => return Err(Error::custom(format!(
                        "expected unsigned integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, writer: &mut Writer<'_>) {
                writer.i64(*self as i64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                let raw = match reader.number()? {
                    Number::Int(i) => i,
                    Number::UInt(u) => i64::try_from(u)
                        .map_err(|_| Error::custom(format!("integer {u} out of range")))?,
                    Number::Float(f) if f.fract() == 0.0 => f as i64,
                    other => return Err(Error::custom(format!(
                        "expected integer, found {other:?}"
                    ))),
                };
                <$t>::try_from(raw)
                    .map_err(|_| Error::custom(format!("integer {raw} out of range")))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, writer: &mut Writer<'_>) {
                writer.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                Ok(match reader.number()? {
                    Number::Float(f) => f as $t,
                    Number::UInt(u) => u as $t,
                    Number::Int(i) => i as $t,
                })
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.bool(*self);
    }
}

impl Deserialize for bool {
    #[inline]
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        reader.bool()
    }
}

impl Serialize for String {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.str(self);
    }
}

impl Deserialize for String {
    #[inline]
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        reader.str().map(std::borrow::Cow::into_owned)
    }
}

impl Serialize for str {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.str(self);
    }
}

impl Serialize for char {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.str(self.encode_utf8(&mut [0; 4]));
    }
}

impl Deserialize for char {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let text = reader.str()?;
        let mut chars = text.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom(format!("expected char, found {text:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, writer: &mut Writer<'_>) {
        (**self).write_json(writer);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, writer: &mut Writer<'_>) {
        match self {
            Some(inner) => inner.write_json(writer),
            None => writer.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        if reader.null()? {
            Ok(None)
        } else {
            T::deserialize(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, writer: &mut Writer<'_>) {
        self.as_slice().write_json(writer);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut elements = reader.seq()?;
        let mut out = Vec::new();
        while let Some(element) = elements.element()? {
            out.push(T::deserialize(element)?);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, writer: &mut Writer<'_>) {
        let mut seq = writer.seq();
        for item in self {
            item.write_json(seq.element());
        }
        seq.end();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, writer: &mut Writer<'_>) {
        self.as_slice().write_json(writer);
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, writer: &mut Writer<'_>) {
                let mut seq = writer.seq();
                $(self.$idx.write_json(seq.element());)+
                seq.end();
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
                let expected = [$($idx),+].len();
                let arity = || Error::custom(format!("expected array of {expected} elements"));
                let mut elements = reader.seq()?;
                let tuple = ($($name::deserialize(elements.element()?.ok_or_else(arity)?)?,)+);
                match elements.element()? {
                    None => Ok(tuple),
                    Some(_) => Err(arity()),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5, G: 6, H: 7)
}

impl<K: fmt::Display + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn write_json(&self, writer: &mut Writer<'_>) {
        let mut map = writer.map();
        for (key, item) in self {
            item.write_json(map.key_display(key));
        }
        map.end();
    }
}

/// The entries of a JSON object whose keys parse as `K`, in document order
/// (a repeated key comes through once per occurrence; the map it is
/// collected into keeps the last).
fn read_entries<K: std::str::FromStr, V: Deserialize>(
    reader: &mut Reader<'_>,
    mut insert: impl FnMut(K, V),
) -> Result<(), Error> {
    let mut entries = reader.map()?;
    while let Some(key) = entries.key()? {
        let parsed = key
            .parse()
            .map_err(|_| Error::custom(format!("invalid map key `{key}`")))?;
        insert(parsed, V::deserialize(entries.value())?);
    }
    Ok(())
}

impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = BTreeMap::new();
        read_entries(reader, |key, value| {
            map.insert(key, value);
        })?;
        Ok(map)
    }
}

impl<K: fmt::Display + Eq + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn write_json(&self, writer: &mut Writer<'_>) {
        // Sorted by the key's text, so equal maps render to equal bytes.
        let mut entries: Vec<(String, &V)> = self.iter().map(|(k, v)| (k.to_string(), v)).collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        let mut map = writer.map();
        for (key, item) in entries {
            item.write_json(map.key_str(&key));
        }
        map.end();
    }
}

impl<K: std::str::FromStr + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let mut map = HashMap::new();
        read_entries(reader, |key, value| {
            map.insert(key, value);
        })?;
        Ok(map)
    }
}

impl Serialize for Duration {
    fn write_json(&self, writer: &mut Writer<'_>) {
        let mut map = writer.map();
        map.key("\"secs\":").u64(self.as_secs());
        map.key("\"nanos\":").u64(u64::from(self.subsec_nanos()));
        map.end();
    }
}

impl Deserialize for Duration {
    fn deserialize(reader: &mut Reader<'_>) -> Result<Self, Error> {
        let (mut secs, mut nanos) = (None, None);
        let mut entries = reader.map()?;
        while let Some(key) = entries.key()? {
            match &*key {
                "secs" if secs.is_none() => secs = Some(u64::deserialize(entries.value())?),
                "nanos" if nanos.is_none() => nanos = Some(u32::deserialize(entries.value())?),
                _ => {
                    entries.value().skip()?;
                }
            }
        }
        let missing = |name: &str| Error::custom(format!("missing field `{name}`"));
        Ok(Duration::new(
            secs.ok_or_else(|| missing("secs"))?,
            nanos.ok_or_else(|| missing("nanos"))?,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut Writer::compact(&mut out));
        out
    }

    /// `text` read as one `T`, with nothing after it.
    fn read<T: Deserialize>(text: &str) -> Result<T, Error> {
        let mut reader = Reader::new(text);
        let value = T::deserialize(&mut reader)?;
        reader.end()?;
        Ok(value)
    }

    #[test]
    fn primitives_write_and_read_back() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(read::<u64>("42").unwrap(), 42);
        assert_eq!(json(&-7i64), "-7");
        assert_eq!(read::<i64>("-7").unwrap(), -7);
        assert_eq!(json(&true), "true");
        assert!(read::<bool>("true").unwrap());
        assert_eq!(json("hi"), "\"hi\"");
        assert_eq!(read::<String>("\"hi\"").unwrap(), "hi");
        assert_eq!(json(&vec![1u64, 2, 3]), "[1,2,3]");
        let t: (u64, i64) = read("[3,-4]").unwrap();
        assert_eq!(t, (3, -4));
        assert_eq!(json(&t), "[3,-4]");
    }

    /// Decimals the reader computes itself (Clinger's fast path) and those
    /// it leaves to `str::parse` read as the same bits `str::parse` gives.
    #[test]
    fn decimals_read_as_str_parse_reads_them() {
        let mut texts: Vec<String> = [
            "0.0",
            "-0.0",
            "0.1",
            "-2.5",
            "1000000000.0",
            "123456789012345.678",
            "9007199254740991.0",
            "9007199254740993.0",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "1.5e3",
            "184467440737095516150.5",
        ]
        .map(String::from)
        .to_vec();
        // xorshift over mantissas and fraction lengths on both sides of the
        // fast path's limits (2^53, 22 fraction digits).
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let digits = (state % 20_000_000_000_000_000) >> (state % 40);
            let places = 1 + (state >> 8) as usize % 24;
            let padded = format!("{digits:0>width$}", width = places + 1);
            let (int, fraction) = padded.split_at(padded.len() - places);
            let int = match int.trim_start_matches('0') {
                "" => "0",
                int => int,
            };
            let sign = if state & 1 == 0 { "" } else { "-" };
            texts.push(format!("{sign}{int}.{fraction}"));
        }
        for text in &texts {
            let expected: f64 = text.parse().unwrap();
            match Reader::new(text).number().unwrap() {
                Number::Float(read) => assert_eq!(read.to_bits(), expected.to_bits(), "{text}"),
                other => panic!("{text} read as {other:?}"),
            }
        }
    }

    #[test]
    fn option_maps_null() {
        assert_eq!(read::<Option<u64>>("null").unwrap(), None);
        assert_eq!(read::<Option<u64>>("5").unwrap(), Some(5));
        assert_eq!(json(&None::<u64>), "null");
    }

    #[test]
    fn duration_round_trips() {
        let d = Duration::new(3, 250_000_000);
        assert_eq!(json(&d), "{\"secs\":3,\"nanos\":250000000}");
        let text = "{\"nanos\":250000000,\"secs\":3}";
        assert_eq!(read::<Duration>(text).unwrap(), d);
    }

    #[test]
    fn map_keys_are_escaped_and_hash_maps_sorted() {
        let ordered: BTreeMap<String, u64> = [("a\"b".to_string(), 1), ("c".to_string(), 2)].into();
        assert_eq!(json(&ordered), "{\"a\\\"b\":1,\"c\":2}");
        let numbered: BTreeMap<u64, bool> = [(7, true)].into();
        assert_eq!(json(&numbered), "{\"7\":true}");
        let hashed: HashMap<String, u64> = (0..20).map(|i| (format!("k{i:02}"), i)).collect();
        let keys: Vec<String> = (0..20).map(|i| format!("\"k{i:02}\":{i}")).collect();
        assert_eq!(json(&hashed), format!("{{{}}}", keys.join(",")));
    }

    #[test]
    fn missing_field_is_reported() {
        let entries = vec![("a".to_string(), Value::UInt(1))];
        assert!(field(&entries, "a").is_ok());
        let err = field(&entries, "b").unwrap_err();
        assert!(err.to_string().contains("missing field `b`"));
        let err = read::<Duration>("{\"secs\":1}").unwrap_err();
        assert!(err.to_string().contains("missing field `nanos`"), "{err}");
    }
}
