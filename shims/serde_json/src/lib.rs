//! Offline shim of `serde_json` over the serde shim's [`serde::Value`].
//!
//! Emits compact JSON (no whitespace — the FHIR tests assert on
//! `"key":"value"` adjacency) and parses with a recursive-descent
//! reader. Numbers keep full `u128`/`i128` integer precision, which the
//! workspace's 128-bit ids require.

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Error for malformed JSON or a shape mismatch during rebuild.
#[derive(Clone, Debug)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl fmt::Display) -> Self {
        Error { msg: msg.to_string() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e)
    }
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    emit(&value.to_value(), &mut out);
    Ok(out)
}

/// Serializes `value` to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::from_value(&value)?)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------- emitter

fn emit(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Uint(u) => out.push_str(&u.to_string()),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => {
            if f.is_finite() {
                // Match serde_json: keep a decimal point so the value
                // re-parses as a float.
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    out.push_str(&format!("{f:.1}"));
                } else {
                    out.push_str(&f.to_string());
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => emit_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit(item, out);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                emit_string(k, out);
                out.push(':');
                emit(v, out);
            }
            out.push('}');
        }
    }
}

fn emit_string(s: &str, out: &mut String) {
    out.push('"');
    // Copy each run of bytes that needs no escape with one `push_str`.
    // Every escaped byte is ASCII, so run boundaries are char boundaries.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run_start..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run_start = i + 1;
    }
    out.push_str(&s[run_start..]);
    out.push('"');
}

// ---------------------------------------------------------------- parser

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing data at byte {}", p.pos)));
    }
    Ok(value)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        let got = self.peek()?;
        if got != b {
            return Err(Error::new(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut map = std::collections::BTreeMap::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` in object, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` in array, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // The parser only ever stops just past an ASCII byte, so both
            // ends of the run are char boundaries of `text`.
            let rest = self
                .text
                .get(self.pos..)
                .ok_or_else(|| Error::new("string starts inside a UTF-8 sequence"))?;
            let (run, end) = rest
                .bytes()
                .enumerate()
                .find(|&(_, b)| b == b'"' || b == b'\\')
                .ok_or_else(|| Error::new("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if end == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| Error::new("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{0008}'),
                b'f' => out.push('\u{000c}'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xD800..0xDC00).contains(&hi) {
                        // Surrogate pair: require the low half.
                        if self.bytes.get(self.pos) == Some(&b'\\')
                            && self.bytes.get(self.pos + 1) == Some(&b'u')
                        {
                            self.pos += 2;
                            let lo = self.hex4()?;
                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                        } else {
                            return Err(Error::new("unpaired surrogate"));
                        }
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| Error::new("invalid \\u escape"))?);
                }
                other => return Err(Error::new(format!("invalid escape `\\{}`", other as char))),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| Error::new("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            let f: f64 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
            Ok(Value::Float(f))
        } else if let Some(digits) = text.strip_prefix('-') {
            let magnitude: i128 = digits
                .parse()
                .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
            if magnitude == 0 {
                Ok(Value::Uint(0))
            } else {
                Ok(Value::Int(-magnitude))
            }
        } else {
            let u: u128 = text
                .parse()
                .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
            Ok(Value::Uint(u))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_structures() {
        let mut inner = std::collections::BTreeMap::new();
        inner.insert("id".to_string(), Value::Uint(u128::MAX));
        inner.insert("neg".to_string(), Value::Int(-42));
        inner.insert("name".to_string(), Value::Str("héllo \"x\"\n".to_string()));
        let doc = Value::Array(vec![
            Value::Object(inner),
            Value::Null,
            Value::Bool(true),
            Value::Float(1.5),
        ]);
        let mut text = String::new();
        emit(&doc, &mut text);
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn string_escapes_between_unescaped_runs() {
        let raw = "a\u{1}b\"c\\d\ne\rf\tgé€😀";
        let mut out = String::new();
        emit(&Value::Str(raw.to_string()), &mut out);
        assert_eq!(out, "\"a\\u0001b\\\"c\\\\d\\ne\\rf\\tgé€😀\"");
        assert_eq!(parse(&out).unwrap(), Value::Str(raw.to_string()));
        let escaped = "\"x\\/\\b\\f\\u00e9\\ud83d\\ude00y\"";
        assert_eq!(
            parse(escaped).unwrap(),
            Value::Str("x/\u{8}\u{c}é😀y".to_string())
        );
        assert!(parse("\"open").is_err());
        assert!(parse("\"bad\\q\"").is_err());
    }

    #[test]
    fn compact_output_no_spaces() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("resourceType".to_string(), Value::Str("Patient".to_string()));
        let mut out = String::new();
        emit(&Value::Object(map), &mut out);
        assert_eq!(out, "{\"resourceType\":\"Patient\"}");
    }

    #[test]
    fn whole_floats_reparse_as_floats() {
        let mut out = String::new();
        emit(&Value::Float(3.0), &mut out);
        assert_eq!(out, "3.0");
        assert_eq!(parse(&out).unwrap(), Value::Float(3.0));
    }

    #[test]
    fn typed_round_trip_through_api() {
        let v: Vec<(u64, String)> = vec![(1, "a".into()), (2, "b".into())];
        let json = to_string(&v).unwrap();
        let back: Vec<(u64, String)> = from_str(&json).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(from_str::<u32>("{").is_err());
        assert!(from_str::<u32>("12 34").is_err());
        assert!(from_slice::<u32>(&[0xFF, 0xFE]).is_err());
    }
}
