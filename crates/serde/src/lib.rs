//! Offline stand-in for the `serde` crate.
//!
//! The build container has no access to crates.io, so this workspace
//! vendors a minimal serde: instead of the visitor-based zero-copy
//! machinery, everything funnels through an owned [`Value`] tree —
//! [`Serialize`] renders a type into a `Value`, [`Deserialize`] rebuilds
//! it from one. `serde_json` (the sibling shim) handles text on either
//! side. This trades speed for simplicity; serialization is not on any
//! hot path in this repo (networks are saved/loaded once per run,
//! telemetry events are small and buffered).
//!
//! Supported derive surface (see `serde_derive`): named structs, tuple
//! structs, `#[serde(transparent)]`, `#[serde(skip)]` (skipped fields
//! deserialize via `Default`), enums with unit / newtype / tuple
//! variants. `Object` keeps insertion order in a `Vec`, which makes
//! serialization canonical — the round-trip tests rely on
//! `to_json(from_json(j)) == j`.

use std::fmt;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A JSON-shaped tree. All numbers are `f64`, as in JSON itself;
/// integer deserialization checks integrality and range.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Array(Vec<Value>),
    /// Key/value pairs in insertion order (order-preserving on purpose:
    /// serialization stays canonical across round trips).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&Vec<(String, Value)>> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Object member lookup by key; `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|m| m.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

static NULL: Value = Value::Null;

impl std::ops::Index<&str> for Value {
    type Output = Value;

    /// Member access that yields `Null` for misses, like upstream
    /// `serde_json::Value`.
    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL)
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        self.as_array().and_then(|a| a.get(idx)).unwrap_or(&NULL)
    }
}

/// Deserialization/serialization failure with a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

/// Render `self` into a [`Value`] tree.
pub trait Serialize {
    fn to_value(&self) -> Value;
}

/// Rebuild `Self` from a [`Value`] tree.
pub trait Deserialize: Sized {
    fn from_value(value: &Value) -> Result<Self, Error>;
}

/// Find a required object member (derive-generated code calls this).
pub fn field<'a>(obj: &'a [(String, Value)], name: &str) -> Result<&'a Value, Error> {
    obj.iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::custom(format!("missing field `{name}`")))
}

// ---------------------------------------------------------------------
// Serialize impls
// ---------------------------------------------------------------------

macro_rules! ser_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

ser_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Num(f64::from(*self))
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! ser_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
    )*};
}

ser_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

// ---------------------------------------------------------------------
// Deserialize impls
// ---------------------------------------------------------------------

macro_rules! de_uint {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_u64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(concat!("out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}

de_uint!(u8, u16, u32, u64, usize);

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let n = value
                    .as_i64()
                    .ok_or_else(|| Error::custom(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(n).map_err(|_| {
                    Error::custom(concat!("out of range for ", stringify!($t)))
                })
            }
        }
    )*};
}

de_int!(i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .ok_or_else(|| Error::custom("expected number"))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_f64()
            .map(|n| n as f32)
            .ok_or_else(|| Error::custom("expected number"))
    }
}

impl Deserialize for bool {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::custom("expected bool"))
    }
}

impl Deserialize for String {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| Error::custom("expected string"))
    }
}

impl Deserialize for Value {
    fn from_value(value: &Value) -> Result<Self, Error> {
        Ok(value.clone())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        value
            .as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let items: Vec<T> = Vec::from_value(value)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {len}")))
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if value.is_null() {
            Ok(None)
        } else {
            T::from_value(value).map(Some)
        }
    }
}

macro_rules! de_tuple {
    ($(($len:literal: $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_array()
                    .ok_or_else(|| Error::custom("expected tuple array"))?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected tuple of {}, got {}",
                        $len,
                        items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}

de_tuple! {
    (1: 0 A)
    (2: 0 A, 1 B)
    (3: 0 A, 1 B, 2 C)
    (4: 0 A, 1 B, 2 C, 3 D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u32::from_value(&42u32.to_value()), Ok(42));
        assert_eq!(f64::from_value(&1.5f64.to_value()), Ok(1.5));
        assert_eq!(bool::from_value(&true.to_value()), Ok(true));
        assert_eq!(
            String::from_value(&"hi".to_string().to_value()),
            Ok("hi".to_string())
        );
    }

    #[test]
    fn integer_range_checks() {
        assert!(u8::from_value(&Value::Num(300.0)).is_err());
        assert!(u32::from_value(&Value::Num(-1.0)).is_err());
        assert!(u32::from_value(&Value::Num(1.5)).is_err());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1u32, 2.5f64), (3, 4.5)];
        assert_eq!(Vec::<(u32, f64)>::from_value(&v.to_value()), Ok(v));
        let a = [[1usize, 2], [3, 4]];
        assert_eq!(<[[usize; 2]; 2]>::from_value(&a.to_value()), Ok(a));
        assert_eq!(Option::<u32>::from_value(&Value::Null), Ok(None));
        assert_eq!(Option::<u32>::from_value(&Value::Num(7.0)), Ok(Some(7)));
    }

    #[test]
    fn object_lookup_preserves_order() {
        let v = Value::Object(vec![
            ("b".into(), Value::Num(1.0)),
            ("a".into(), Value::Num(2.0)),
        ]);
        assert_eq!(v.get("a"), Some(&Value::Num(2.0)));
        assert_eq!(v.get("missing"), None);
        let obj = v.as_object().unwrap();
        assert_eq!(obj[0].0, "b", "insertion order kept");
    }
}
