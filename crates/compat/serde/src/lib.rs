//! Minimal, self-contained substitute for the `serde` crate.
//!
//! The build environment of this repository has no access to crates.io, so
//! the workspace vendors the narrow slice of serde it actually uses: a JSON-
//! shaped [`Value`] data model, [`Serialize`] / [`Deserialize`] traits that
//! convert to and from it, and derive macros (re-exported from the sibling
//! `serde_derive` crate) covering named-field structs, tuple structs and
//! enums with unit or struct variants, plus the `#[serde(skip)]` and
//! `#[serde(with = "module")]` field attributes.
//!
//! The API is intentionally *not* the full serde data model: there are no
//! `Serializer`/`Deserializer` visitors. `with`-style modules implement
//! `fn serialize(&T) -> Value` and `fn deserialize(&Value) -> Result<T, Error>`
//! instead. Swapping this crate for the real serde only requires restoring
//! those two signatures.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Duration;

pub use serde_derive::{Deserialize, Serialize};

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

/// Types that can be converted into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the serde data model.
    fn to_value(&self) -> Value;
}

/// Types that can be reconstructed from a [`Value`].
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from the serde data model.
    fn from_value(value: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
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
            fn to_value(&self) -> Value {
                Value::UInt(*self as u64)
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
            fn to_value(&self) -> Value {
                let v = *self as i64;
                if v >= 0 { Value::UInt(v as u64) } else { Value::Int(v) }
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
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
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
    fn to_value(&self) -> Value {
        Value::Bool(*self)
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
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
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
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
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
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
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
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Seq(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
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
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (k.to_string(), v.to_value()))
                .collect(),
        )
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
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_value()))
            .collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        Value::Map(entries)
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
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("secs".to_string(), Value::UInt(self.as_secs())),
            (
                "nanos".to_string(),
                Value::UInt(u64::from(self.subsec_nanos())),
            ),
        ])
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

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i64::from_value(&(-7i64).to_value()).unwrap(), -7);
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()).unwrap(),
            "hi"
        );
        let v: Vec<u64> = Vec::from_value(&vec![1u64, 2, 3].to_value()).unwrap();
        assert_eq!(v, vec![1, 2, 3]);
        let t: (u64, i64) = Deserialize::from_value(&(3u64, -4i64).to_value()).unwrap();
        assert_eq!(t, (3, -4));
    }

    #[test]
    fn option_maps_null() {
        assert_eq!(Option::<u64>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u64>::from_value(&Value::UInt(5)).unwrap(), Some(5));
        assert_eq!(None::<u64>.to_value(), Value::Null);
    }

    #[test]
    fn duration_round_trips() {
        let d = Duration::new(3, 250_000_000);
        assert_eq!(Duration::from_value(&d.to_value()).unwrap(), d);
    }

    #[test]
    fn missing_field_is_reported() {
        let entries = vec![("a".to_string(), Value::UInt(1))];
        assert!(field(&entries, "a").is_ok());
        let err = field(&entries, "b").unwrap_err();
        assert!(err.to_string().contains("missing field `b`"));
    }
}
