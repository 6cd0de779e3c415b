//! The `Deserialize` trait and impls for std types.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::value::Value;

/// A deserialization failure with a human-readable message.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    /// Creates an error from a message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for Error {}

/// A type that can be reconstructed from the JSON data model.
pub trait Deserialize: Sized {
    /// Builds `Self` from a [`Value`].
    fn from_value(v: &Value) -> Result<Self, Error>;
}

/// Looks up `key` in object entries and deserializes it. A missing key is
/// treated as `null` (so `Option` fields tolerate omission), but the error of
/// the `null` conversion reports the missing key.
pub fn field<T: Deserialize>(obj: &[(String, Value)], key: &str) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        None => {
            T::from_value(&Value::Null).map_err(|_| Error::custom(format!("missing field `{key}`")))
        }
    }
}

/// Like [`field`], but a missing key yields `T::default()` — the behaviour of
/// `#[serde(default)]`. A key that is *present* still deserializes strictly.
pub fn field_or_default<T: Deserialize + Default>(
    obj: &[(String, Value)],
    key: &str,
) -> Result<T, Error> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => T::from_value(v).map_err(|e| Error::custom(format!("field `{key}`: {e}"))),
        None => Ok(T::default()),
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, got {other:?}"))),
        }
    }
}

fn int_from(v: &Value) -> Result<i128, Error> {
    match v {
        Value::U64(n) => Ok(*n as i128),
        Value::I64(n) => Ok(*n as i128),
        Value::F64(n) if n.fract() == 0.0 && n.abs() < 9.3e18 => Ok(*n as i128),
        other => Err(Error::custom(format!("expected integer, got {other:?}"))),
    }
}

macro_rules! de_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let n = int_from(v)?;
                <$t>::try_from(n)
                    .map_err(|_| Error::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
de_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(n) => Ok(*n),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            // Non-finite floats serialize as null; round-trip them as NaN.
            Value::Null => Ok(f64::NAN),
            other => Err(Error::custom(format!("expected number, got {other:?}"))),
        }
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|n| n as f32)
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Deserialize for &'static str {
    fn from_value(v: &Value) -> Result<Self, Error> {
        // Mirrors serde's borrowed-str deserialization. JSON input owns its
        // buffers, so a 'static str can only be produced by leaking; the
        // workspace only deserializes &'static str in small static tables
        // (e.g. model-zoo metadata), so the leak is bounded and acceptable.
        match v {
            Value::Str(s) => Ok(Box::leak(s.clone().into_boxed_str())),
            other => Err(Error::custom(format!("expected string, got {other:?}"))),
        }
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = String::from_value(v)?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-character string")),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v
            .as_array()
            .ok_or_else(|| Error::custom(format!("expected array, got {v:?}")))?;
        items.iter().map(T::from_value).collect()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<[T]> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Vec::<T>::from_value(v).map(Into::into)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| Error::custom(format!("expected array of length {N}, got {len}")))
    }
}

impl Deserialize for () {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(()),
            other => Err(Error::custom(format!("expected null, got {other:?}"))),
        }
    }
}

macro_rules! de_tuple {
    ($(($len:literal; $($n:tt $t:ident),+))*) => {$(
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v
                    .as_array()
                    .ok_or_else(|| Error::custom("expected array for tuple"))?;
                if items.len() != $len {
                    return Err(Error::custom(format!(
                        "expected array of length {}, got {}", $len, items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}
de_tuple! {
    (1; 0 A)
    (2; 0 A, 1 B)
    (3; 0 A, 1 B, 2 C)
    (4; 0 A, 1 B, 2 C, 3 D)
    (5; 0 A, 1 B, 2 C, 3 D, 4 E)
    (6; 0 A, 1 B, 2 C, 3 D, 4 E, 5 F)
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v:?}")))?;
        pairs
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v:?}")))?;
        pairs
            .iter()
            .map(|(k, val)| Ok((k.clone(), V::from_value(val)?)))
            .collect()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }
}
