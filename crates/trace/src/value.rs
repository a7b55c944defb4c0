//! Typed attribute values.

use std::fmt;

use hlsb_findings::json::{FromJson, Json};
use hlsb_findings::json_escape;

/// A typed span/event attribute value.
///
/// The variants are chosen so the JSON encoding is unambiguous: a number
/// with a `.` or exponent is an [`Value::F64`], any other number a
/// [`Value::U64`] (floats always render with a fractional marker — Rust's
/// shortest-round-trip `{:?}` formatting — so the two never collide).
/// Signed quantities (slack, excess delay) are therefore carried as
/// `F64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string.
    Str(String),
    /// An unsigned integer (counters, ids, factors).
    U64(u64),
    /// A float (delays in ns, frequencies in MHz). Non-finite inputs are
    /// clamped to `0.0` so the JSON encoding stays valid.
    F64(f64),
    /// A boolean flag.
    Bool(bool),
}

impl Value {
    /// The value as a `u64`, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Renders the value as a JSON token.
    pub(crate) fn to_json(&self) -> String {
        match self {
            Value::Str(s) => format!("\"{}\"", json_escape(s)),
            Value::U64(v) => v.to_string(),
            Value::F64(v) => fmt_f64(*v),
            Value::Bool(b) => b.to_string(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s}"),
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v:.3}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl FromJson for Value {
    const EXPECTED: &'static str = "a string, number or boolean";
    fn from_value(value: Json) -> Option<Value> {
        match value {
            Json::Str(s) => Some(Value::Str(s)),
            Json::U64(v) => Some(Value::U64(v)),
            Json::F64(v) => Some(Value::F64(v)),
            Json::Bool(b) => Some(Value::Bool(b)),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(if v.is_finite() { v } else { 0.0 })
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Formats a float as a JSON number that always carries a float marker
/// (`.` or exponent): Rust's `{:?}` is the shortest representation that
/// parses back to the identical bits, and never prints a bare integer for
/// an `f64` — so the JSONL round trip is byte-identical *and* preserves
/// the `U64`/`F64` distinction.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_tokens_are_type_distinguishable() {
        assert_eq!(Value::U64(3).to_json(), "3");
        assert_eq!(Value::F64(3.0).to_json(), "3.0");
        assert_eq!(Value::F64(0.1).to_json(), "0.1");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::Str("a\"b".into()).to_json(), "\"a\\\"b\"");
        // Non-finite floats must not leak invalid JSON.
        assert_eq!(Value::from(f64::NAN).to_json(), "0.0");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(7u32), Value::U64(7));
        assert_eq!(Value::from(7usize), Value::U64(7));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::U64(5).as_u64(), Some(5));
        assert_eq!(Value::Bool(false).as_u64(), None);
    }
}
