//! Offline shim of `serde_json` over the serde shim's JSON codec.
//!
//! The codec itself lives in `serde`: [`Serialize`] writes compact JSON
//! (no whitespace; the FHIR tests assert on `"key":"value"` adjacency)
//! straight into the output, and [`Deserialize`] reads straight from the
//! borrowed input. This crate keeps upstream's entry points and error
//! type. Numbers keep full `u128`/`i128` integer precision, which the
//! workspace's 128-bit ids require.

#![warn(missing_docs)]

use serde::{DeError, Deserialize, Reader, Serialize, Writer};
use std::fmt;

/// Error for malformed JSON or a value of the wrong shape.
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
        if e.is_syntax() {
            Error::new(e.message())
        } else {
            Error::new(e)
        }
    }
}

/// Serializes `value` to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    let mut out = Writer::new();
    value.serialize(&mut out);
    Ok(out.into_bytes())
}

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    String::from_utf8(to_vec(value)?)
        .map_err(|e| Error::new(format!("serializer wrote invalid UTF-8: {e}")))
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut input = Reader::new(s);
    match T::deserialize(&mut input).and_then(|value| input.end().map(|()| value)) {
        Ok(value) => Ok(value),
        Err(e) if e.is_syntax() => Err(e.into()),
        // The read stopped at a value of the wrong shape. A syntax error
        // anywhere in the document still takes precedence.
        Err(e) => {
            let mut check = Reader::new(s);
            match check.skip_value().and_then(|()| check.end()) {
                Ok(()) => Err(e.into()),
                Err(syntax) => Err(syntax.into()),
            }
        }
    }
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// The reference the codec is tested against: a parser that builds a
/// whole document tree, which is then typed, and an emitter of such
/// trees.
#[cfg(test)]
mod oracle {
    use super::Error;
    use std::collections::BTreeMap;

    /// A JSON document tree.
    #[derive(Clone, Debug, PartialEq)]
    pub enum Value {
        Null,
        Bool(bool),
        /// A non-negative integer, and `-0`.
        Uint(u128),
        /// A strictly negative integer.
        Int(i128),
        Float(f64),
        Str(String),
        Array(Vec<Value>),
        Object(BTreeMap<String, Value>),
    }

    pub fn emit(value: &Value, out: &mut String) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Uint(u) => out.push_str(&u.to_string()),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Float(f) => {
                if f.is_finite() {
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

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
    }

    pub fn parse(s: &str) -> Result<Value, Error> {
        let mut p = Parser { text: s, bytes: s.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(Error::new(format!("trailing data at byte {}", p.pos)));
        }
        Ok(value)
    }

    impl Parser<'_> {
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
            let mut map = BTreeMap::new();
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
                            if self.bytes.get(self.pos) == Some(&b'\\')
                                && self.bytes.get(self.pos + 1) == Some(&b'u')
                            {
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::new("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                return Err(Error::new("unpaired surrogate"));
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::new("invalid \\u escape"))?,
                        );
                    }
                    other => {
                        return Err(Error::new(format!("invalid escape `\\{}`", other as char)))
                    }
                }
            }
        }

        fn hex4(&mut self) -> Result<u32, Error> {
            let chunk = self
                .bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            if !chunk.iter().all(u8::is_ascii_hexdigit) {
                return Err(Error::new("invalid \\u escape"));
            }
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
            let float = || {
                let f: f64 = text
                    .parse()
                    .map_err(|_| Error::new(format!("invalid number `{text}`")))?;
                Ok(Value::Float(f))
            };
            if is_float {
                float()
            } else if text.starts_with('-') {
                match text.parse::<i128>() {
                    Ok(0) => Ok(Value::Uint(0)),
                    Ok(i) => Ok(Value::Int(i)),
                    // Out of range: a large whole float, written bare.
                    Err(_) => float(),
                }
            } else {
                match text.parse::<u128>() {
                    Ok(u) => Ok(Value::Uint(u)),
                    Err(_) => float(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests;
