//! Offline stand-in for the `serde_json` crate.
//!
//! Text encoding/decoding for the vendored `serde` shim's [`Value`]
//! tree. The writer is canonical: object members keep insertion order,
//! integral numbers inside the f64-exact window print without a decimal
//! point, and non-integral numbers use Rust's shortest-roundtrip float
//! formatting — so `to_string(from_str(s))` is a fixpoint for anything
//! this workspace writes (the serialization tests assert exactly that).
//!
//! Non-finite numbers serialize as `null`, matching upstream's lossy
//! default. The `json!` macro covers the subset used here: object /
//! array literals whose values are Rust expressions.

use std::fmt::Write as _;

pub use serde::{Error, Value};

/// Serialize to compact JSON. Always `Ok`; the `Result` mirrors the
/// upstream signature.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&value.to_value(), &mut out);
    Ok(out)
}

/// Serialize to human-readable JSON (2-space indent).
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), &mut out, 0);
    Ok(out)
}

/// Parse JSON text into any [`serde::Deserialize`] type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse(text)?;
    T::from_value(&value)
}

/// Rebuild a typed value from an already-parsed [`Value`].
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T, Error> {
    T::from_value(&value)
}

/// Render any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_value()
}

/// Build a [`Value`] from a JSON-shaped literal. Subset: `null`, object
/// and array literals with literal keys; member values are arbitrary
/// serializable Rust expressions (not nested braces — nest via a nested
/// `json!` call).
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$elem) ),* ])
    };
    ({ $($key:literal : $val:expr),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::to_value(&$val)) ),* ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn write_num(n: f64, out: &mut String) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
        write!(out, "{}", n as i64).unwrap();
    } else {
        write!(out, "{n}").unwrap();
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_num(*n, out),
        Value::Str(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_compact(item, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, out: &mut String, depth: usize) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(out, depth + 1);
                write_pretty(item, out, depth + 1);
            }
            out.push('\n');
            indent(out, depth);
            out.push(']');
        }
        Value::Object(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in members.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                indent(out, depth + 1);
                write_str(k, out);
                out.push_str(": ");
                write_pretty(item, out, depth + 1);
            }
            out.push('\n');
            indent(out, depth);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

// ---------------------------------------------------------------------
// Parser (recursive descent)
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

/// Deepest nesting the parser follows (as in the real `serde_json`): the
/// descent is recursive, and input is not always a friend's — a frame of
/// nothing but `[` must be an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::custom(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, inner: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deep"));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut out)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self, out: &mut String) -> Result<(), Error> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        match b {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'b' => out.push('\u{0008}'),
            b'f' => out.push('\u{000c}'),
            b'n' => out.push('\n'),
            b'r' => out.push('\r'),
            b't' => out.push('\t'),
            b'u' => {
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        let code =
                            0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(code)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(hi)
                };
                out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            _ => return Err(self.err("unknown escape")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in [
            "null", "true", "false", "0", "-3", "1.5", "\"hi\"", "[]", "{}",
        ] {
            let v: Value = from_str(text).unwrap();
            assert_eq!(to_string(&v).unwrap(), text, "canonical for {text}");
        }
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(to_string(&5u32).unwrap(), "5");
        assert_eq!(to_string(&(-7i64)).unwrap(), "-7");
        assert_eq!(to_string(&2.5f64).unwrap(), "2.5");
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text = r#"{"a":[1,2.5,{"b":"x"}],"c":null,"d":true}"#;
        let v: Value = from_str(text).unwrap();
        assert_eq!(to_string(&v).unwrap(), text);
        assert_eq!(v["a"][2]["b"].as_str(), Some("x"));
        assert_eq!(v["missing"], Value::Null);
    }

    #[test]
    fn nesting_has_a_limit_instead_of_a_stack() {
        let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(from_str::<Value>(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&nest(MAX_DEPTH + 1)).is_err());
        let objects = r#"{"a":"#.repeat(MAX_DEPTH + 1);
        assert!(from_str::<Value>(&objects).is_err());
        assert!(from_str::<Value>(&"[".repeat(1 << 20)).is_err());
        // Siblings do not add up.
        let wide = format!("[{}]", vec![nest(MAX_DEPTH - 1); 4].join(","));
        assert!(from_str::<Value>(&wide).is_ok());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "line\nquote\"back\\slash\ttab\u{1F600}\u{0001}".to_string();
        let text = to_string(&original).unwrap();
        let back: String = from_str(&text).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn surrogate_pairs_parse() {
        let v: String = from_str(r#""😀""#).unwrap();
        assert_eq!(v, "\u{1F600}");
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let text = r#"{"a":[1,2],"b":{"c":[],"d":{}}}"#;
        let v: Value = from_str(text).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        let back: Value = from_str(&pretty).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn json_macro_builds_objects() {
        let units = vec![1u32, 2, 3];
        let v = json!({ "units": units, "cost": 1.5, "tag": "x" });
        assert_eq!(
            to_string(&v).unwrap(),
            r#"{"units":[1,2,3],"cost":1.5,"tag":"x"}"#
        );
        assert_eq!(json!(null), Value::Null);
        let arr = json!([1u32, 2u32]);
        assert_eq!(to_string(&arr).unwrap(), "[1,2]");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }
}
