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
//! * **In:** `serde_json::from_str` parses text into a [`Value`] tree in one
//!   pass and [`Deserialize::from_value`] rebuilds the typed structure from
//!   it. The tree is kept on this side because it costs little next to the
//!   parse and lets fields arrive in any order.
//!
//! The derive macros (re-exported from the sibling `serde_derive` crate) cover
//! named-field structs, tuple structs and enums with unit or struct variants,
//! plus the `#[serde(skip)]`, `#[serde(default)]`, `#[serde(with = "module")]`
//! and `#[serde(skip_serializing_if = "path")]` field attributes.
//!
//! This is *not* the serde data model: there are no `Serializer` /
//! `Deserializer` visitors and no format but JSON. A `with` module implements
//! `fn serialize(&T, &mut Writer<'_>)` and
//! `fn deserialize(&Value) -> Result<T, Error>`; moving to the real serde
//! means rewriting those modules and the hand-written impls (three in this
//! workspace) against its visitor API.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

mod writer;

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

/// Error produced while converting a [`Value`] back into a typed structure.
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

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the serde data model.
    fn from_value(value: &Value) -> Result<Self, Error>;
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::UInt(u) => *u,
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::Float(f) if f.fract() == 0.0 && *f >= 0.0 => *f as u64,
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                let raw = match value {
                    Value::Int(i) => *i,
                    Value::UInt(u) => i64::try_from(*u)
                        .map_err(|_| Error::custom(format!("integer {u} out of range")))?,
                    Value::Float(f) if f.fract() == 0.0 => *f as i64,
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    Value::Int(i) => Ok(*i as $t),
                    other => Err(Error::custom(format!("expected number, found {other:?}"))),
                }
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.str(self);
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, found {other:?}"))),
        }
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::custom(format!("expected char, found {other:?}"))),
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::from_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, writer: &mut Writer<'_>) {
        self.as_slice().write_json(writer);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => {
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    out.push(T::from_value(item)?);
                }
                Ok(out)
            }
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
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
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_seq()
                    .ok_or_else(|| Error::custom("expected array for tuple"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected array of {expected} elements, found {}",
                        items.len()
                    )));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
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

impl<K: std::str::FromStr + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::custom("expected object for map"))?;
        entries
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| Error::custom(format!("invalid map key `{k}`")))?;
                Ok((key, V::from_value(v)?))
            })
            .collect()
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::custom("expected object for map"))?;
        entries
            .iter()
            .map(|(k, v)| {
                let key = k
                    .parse()
                    .map_err(|_| Error::custom(format!("invalid map key `{k}`")))?;
                Ok((key, V::from_value(v)?))
            })
            .collect()
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
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_map()
            .ok_or_else(|| Error::custom("expected object for Duration"))?;
        let secs = u64::from_value(field(entries, "secs")?)?;
        let nanos = u32::from_value(field(entries, "nanos")?)?;
        Ok(Duration::new(secs, nanos))
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

    #[test]
    fn primitives_write_and_read_back() {
        assert_eq!(json(&42u64), "42");
        assert_eq!(u64::from_value(&Value::UInt(42)).unwrap(), 42);
        assert_eq!(json(&-7i64), "-7");
        assert_eq!(i64::from_value(&Value::Int(-7)).unwrap(), -7);
        assert_eq!(json(&true), "true");
        assert!(bool::from_value(&Value::Bool(true)).unwrap());
        assert_eq!(json("hi"), "\"hi\"");
        assert_eq!(String::from_value(&Value::Str("hi".into())).unwrap(), "hi");
        assert_eq!(json(&vec![1u64, 2, 3]), "[1,2,3]");
        let seq = Value::Seq(vec![Value::UInt(3), Value::Int(-4)]);
        let t: (u64, i64) = Deserialize::from_value(&seq).unwrap();
        assert_eq!(t, (3, -4));
        assert_eq!(json(&t), "[3,-4]");
    }

    #[test]
    fn option_maps_null() {
        assert_eq!(Option::<u64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_value(&Value::UInt(5)).unwrap(), Some(5));
        assert_eq!(json(&None::<u64>), "null");
    }

    #[test]
    fn duration_round_trips() {
        let d = Duration::new(3, 250_000_000);
        assert_eq!(json(&d), "{\"secs\":3,\"nanos\":250000000}");
        let value = Value::Map(vec![
            ("secs".into(), Value::UInt(3)),
            ("nanos".into(), Value::UInt(250_000_000)),
        ]);
        assert_eq!(Duration::from_value(&value).unwrap(), d);
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
    }
}
