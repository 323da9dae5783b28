//! Offline stand-in for `serde_json`, scoped to what this workspace needs:
//! the in-memory JSON [`Value`] every JSON producer in the workspace builds
//! by hand, [`to_string`] / [`to_string_pretty`] with real JSON output
//! (string escaping, 2-space indentation, stable field order), and
//! [`from_str`], a recursive-descent parser back into [`Value`] so
//! consumers (trace differentials, `grout-top`, the repository benchmark)
//! can read what the serializers wrote.
//!
//! Unlike upstream there is no `Serialize` trait and no derive: the
//! renderers take a `&Value`, and a type that has a JSON form builds its
//! `Value` in an inherent method. `Value::Object` is an ordered `Vec`, so
//! output keys keep insertion order.

use std::fmt::Write as _;

/// An in-memory JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point number.
    F64(f64),
    /// String.
    String(String),
    /// Array.
    Array(Vec<Value>),
    /// Object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Looks a key up in an object (first match; `None` otherwise).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, widening from any non-negative numeric
    /// representation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) if *n >= 0 => Some(*n as u64),
            Value::F64(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `f64`, widening from any numeric representation.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            Value::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object fields in insertion order, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Serialization or parse error. Serialization is infallible in the
/// shim's data model; parsing reports the byte offset it gave up at.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Renders a [`Value`] as pretty-printed JSON (2-space indent).
pub fn to_string_pretty(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    Ok(out)
}

/// Renders a [`Value`] as compact JSON.
pub fn to_string(value: &Value) -> Result<String, Error> {
    let mut out = String::new();
    write_compact(&mut out, value);
    Ok(out)
}

/// How deeply arrays and objects may nest in [`from_str`] input (upstream
/// serde_json's limit). The parser recurses once per level, so the cap
/// keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`]. Numbers parse as `U64`/`I64` when
/// integral and in range, `F64` otherwise; object key order is preserved
/// (the shim's `Value::Object` is an ordered `Vec`). Trailing whitespace
/// is allowed, trailing garbage is an error, and so is nesting deeper
/// than 128 arrays/objects.
pub fn from_str(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays/objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> Error {
        Error(format!("json parse error at byte {}: {what}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object one level deeper, refusing past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting deeper than 128"));
        }
        self.depth += 1;
        let v = parse(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
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
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let cp = if (0xD800..0xDC00).contains(&hex) {
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 2;
                                let low = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .ok_or_else(|| self.err("bad \\u escape"))?;
                                self.pos += 4;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            out.push(char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at this byte.
                    let start = self.pos - 1;
                    let len = match b {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid utf-8"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        if v == v.trunc() && v.abs() < 1e15 {
            // Keep integral floats readable ("3.0" rather than "3").
            let _ = write!(out, "{v:.1}");
        } else {
            let _ = write!(out, "{v}");
        }
    } else {
        // JSON has no NaN/Infinity; serde_json emits null.
        out.push_str("null");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Value, indent: usize) {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => write_f64(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                write_value(out, item, indent + 1);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&close);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad);
                write_escaped(out, k);
                out.push_str(": ");
                write_value(out, val, indent + 1);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&close);
            out.push('}');
        }
    }
}

fn write_compact(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(n) => write_f64(out, *n),
        Value::String(s) => write_escaped(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(out, item);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(out, k);
                out.push(':');
                write_compact(out, val);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_prints_nested_structures() {
        let v = Value::Object(vec![
            ("id".into(), Value::String("fig1".into())),
            (
                "points".into(),
                Value::Array(vec![Value::U64(1), Value::F64(2.5)]),
            ),
        ]);
        let s = to_string_pretty(&v).unwrap();
        assert_eq!(
            s,
            "{\n  \"id\": \"fig1\",\n  \"points\": [\n    1,\n    2.5\n  ]\n}"
        );
    }

    #[test]
    fn escapes_strings() {
        let s = to_string(&Value::String("a\"b\\c\nd".into())).unwrap();
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let s = to_string(&Value::F64(3.0)).unwrap();
        assert_eq!(s, "3.0");
    }

    #[test]
    fn parser_round_trips_what_the_serializers_write() {
        let v = Value::Object(vec![
            ("name".into(), Value::String("a\"b\\c\nd".into())),
            ("count".into(), Value::U64(42)),
            ("offset".into(), Value::I64(-7)),
            ("ratio".into(), Value::F64(2.5)),
            ("ok".into(), Value::Bool(true)),
            ("missing".into(), Value::Null),
            (
                "items".into(),
                Value::Array(vec![Value::U64(1), Value::String("two".into())]),
            ),
        ]);
        for rendered in [to_string(&v).unwrap(), to_string_pretty(&v).unwrap()] {
            assert_eq!(from_str(&rendered).unwrap(), v);
        }
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let v = from_str(r#"{"s": "tab\tnewline\né😀"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("tab\tnewline\né😀"));
        // Integral float stays f64; big u64 stays u64.
        assert_eq!(from_str("3.0").unwrap(), Value::F64(3.0));
        assert_eq!(
            from_str("18446744073709551615").unwrap(),
            Value::U64(u64::MAX)
        );
        assert_eq!(from_str("-3").unwrap(), Value::I64(-3));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated", "1 2"] {
            assert!(from_str(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn value_accessors_navigate_parsed_trees() {
        let v = from_str(r#"{"a": {"b": [1, 2.5]}, "n": -1}"#).unwrap();
        let items = v.get("a").unwrap().get("b").unwrap().as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].as_f64(), Some(2.5));
        assert_eq!(v.get("n").unwrap().as_u64(), None);
        assert_eq!(v.get("nope"), None);
    }

    #[test]
    fn nesting_is_capped_at_128() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(from_str(&nested(128)).is_ok());
        let err = from_str(&nested(129)).unwrap_err().to_string();
        assert!(err.contains("at byte 128"), "{err}");
        // Far past the cap: an error, not a stack overflow.
        assert!(from_str(&nested(1_000_000)).is_err());
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(from_str(&objects(128)).is_ok());
        assert!(from_str(&objects(129)).is_err());
    }
}
