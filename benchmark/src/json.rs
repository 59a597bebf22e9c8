//! Small helpers over the vendored `serde_json` value tree.

use serde_json::Value;

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// A finite number; JSON has no literal for the others, so they become
/// `null` and fail whatever check reads them.
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

pub fn strs<S: AsRef<str>>(items: &[S]) -> Value {
    Value::Seq(items.iter().map(|s| Value::Str(s.as_ref().to_string())).collect())
}

pub fn nums(items: &[f64]) -> Value {
    Value::Seq(items.iter().map(|&v| num(v)).collect())
}

pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    v.field(key).ok()
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

pub fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::I64(n) => u64::try_from(*n).ok(),
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_seq(v: &Value) -> Option<&[Value]> {
    match v {
        Value::Seq(s) => Some(s),
        _ => None,
    }
}

pub fn as_map(v: &Value) -> Option<&[(String, Value)]> {
    match v {
        Value::Map(m) => Some(m),
        _ => None,
    }
}

pub fn f64_at(v: &Value, key: &str) -> Option<f64> {
    get(v, key).and_then(as_f64)
}

pub fn u64_at(v: &Value, key: &str) -> Option<u64> {
    get(v, key).and_then(as_u64)
}

pub fn to_string(v: &Value) -> String {
    serde_json::to_string(v).expect("the value tree always serialises")
}

pub fn to_string_pretty(v: &Value) -> String {
    serde_json::to_string_pretty(v).expect("the value tree always serialises")
}
