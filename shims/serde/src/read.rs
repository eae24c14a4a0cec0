//! The JSON reader behind [`Deserialize`](crate::Deserialize).
//!
//! The reader walks the borrowed input once, token by token, with the
//! grammar and messages of a recursive-descent parser: whitespace may
//! separate any two tokens, numbers keep full `u128`/`i128` precision,
//! and a value the caller does not want is still validated as it is
//! skipped.

use std::borrow::Cow;

use crate::DeError;

/// A JSON number token, classified the way the reader parses it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Number {
    /// No sign, point or exponent; also `-0`.
    Uint(u128),
    /// A negative integer.
    Int(i128),
    /// Any token with a point, an exponent or an inner sign, and an
    /// integer token too large for `u128`/`i128`.
    Float(f64),
}

/// Reads JSON values from borrowed text.
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// Checks that nothing but whitespace is left.
    ///
    /// # Errors
    ///
    /// Fails on trailing data.
    pub fn end(&mut self) -> Result<(), DeError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(DeError::syntax(format!(
                "trailing data at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    /// The next non-whitespace byte, which is not consumed.
    ///
    /// # Errors
    ///
    /// Fails at the end of the input.
    pub fn peek(&mut self) -> Result<u8, DeError> {
        self.skip_ws();
        self.bytes()
            .get(self.pos)
            .copied()
            .ok_or_else(|| DeError::syntax("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        let got = self.peek()?;
        if got != b {
            return Err(DeError::syntax(format!(
                "expected `{}` at byte {}, got `{}`",
                b as char, self.pos, got as char
            )));
        }
        self.pos += 1;
        Ok(())
    }

    /// A shape error naming what was expected and the kind of value
    /// found instead. The value is not consumed.
    pub(crate) fn unexpected(&mut self, expected: &str) -> DeError {
        let found = match self.peek() {
            Ok(b'{') => "object",
            Ok(b'[') => "array",
            Ok(b'"') => "string",
            Ok(b't' | b'f') => "bool",
            Ok(b'n') => "null",
            Ok(b'-' | b'0'..=b'9') => "number",
            Ok(_) => "invalid value",
            Err(_) => "end of input",
        };
        DeError::msg(format!("expected {expected} got {found}"))
    }

    fn literal(&mut self, text: &str) -> Result<(), DeError> {
        if self.bytes()[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(())
        } else {
            Err(DeError::syntax(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Consumes a `null` if one comes next.
    ///
    /// # Errors
    ///
    /// Fails on malformed input, such as `nul`.
    pub fn null(&mut self) -> Result<bool, DeError> {
        if self.peek()? != b'n' {
            return Ok(false);
        }
        self.literal("null")?;
        Ok(true)
    }

    /// Reads `true` or `false`.
    ///
    /// # Errors
    ///
    /// Fails on any other value.
    pub fn bool(&mut self) -> Result<bool, DeError> {
        match self.peek()? {
            b't' => self.literal("true").map(|()| true),
            b'f' => self.literal("false").map(|()| false),
            _ => Err(self.unexpected("bool")),
        }
    }

    /// Reads a number token: digits with an optional leading `-`, where
    /// any `.`, `e`, `E`, `+` or inner `-` makes it a float. An integer
    /// token out of `u128`/`i128` range also reads as a float, since
    /// [`Writer::f64`](crate::Writer::f64) writes large whole floats
    /// without a point.
    pub(crate) fn number(&mut self, expected: &str) -> Result<Number, DeError> {
        if !matches!(self.peek()?, b'-' | b'0'..=b'9') {
            return Err(self.unexpected(expected));
        }
        let bytes = self.bytes();
        let start = self.pos;
        if bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        // The token is ASCII, so both ends are char boundaries.
        let text = &self.text[start..self.pos];
        let float = || {
            text.parse()
                .map(Number::Float)
                .map_err(|_| DeError::syntax(format!("invalid number `{text}`")))
        };
        if is_float {
            float()
        } else if text.starts_with('-') {
            match text.parse() {
                Ok(0) => Ok(Number::Uint(0)),
                Ok(value) => Ok(Number::Int(value)),
                Err(_) => float(),
            }
        } else {
            text.parse().map(Number::Uint).or_else(|_| float())
        }
    }

    /// Reads a string, borrowing it from the input when it holds no
    /// escape.
    ///
    /// # Errors
    ///
    /// Fails on any other value and on a malformed string.
    pub fn str(&mut self) -> Result<Cow<'a, str>, DeError> {
        if self.peek()? != b'"' {
            return Err(self.unexpected("string"));
        }
        self.string()
    }

    /// Reads a string token, as an object key or a value.
    fn string(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // Take the run up to the next quote or backslash in one go.
            // The reader only ever stops just past an ASCII byte, so both
            // ends of the run are char boundaries of `text`.
            let rest = self
                .text
                .get(self.pos..)
                .ok_or_else(|| DeError::syntax("string starts inside a UTF-8 sequence"))?;
            let run = find_quote_or_backslash(rest.as_bytes())
                .ok_or_else(|| DeError::syntax("unterminated string"))?;
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(match out {
                    None => Cow::Borrowed(&rest[..run]),
                    Some(mut owned) => {
                        owned.push_str(&rest[..run]);
                        Cow::Owned(owned)
                    }
                });
            }
            let owned = out.get_or_insert_with(String::new);
            owned.push_str(&rest[..run]);
            let esc = *self
                .bytes()
                .get(self.pos)
                .ok_or_else(|| DeError::syntax("unterminated escape"))?;
            self.pos += 1;
            let c = match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{0008}',
                b'f' => '\u{000c}',
                b'u' => self.unicode_escape()?,
                other => {
                    return Err(DeError::syntax(format!(
                        "invalid escape `\\{}`",
                        other as char
                    )))
                }
            };
            owned.push(c);
        }
    }

    /// Decodes the rest of a `\u` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, DeError> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: require a second escape, a low surrogate.
            if self.bytes().get(self.pos) != Some(&b'\\')
                || self.bytes().get(self.pos + 1) != Some(&b'u')
            {
                return Err(DeError::syntax("unpaired surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(DeError::syntax("unpaired surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| DeError::syntax("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, DeError> {
        let chunk = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| DeError::syntax("truncated \\u escape"))?;
        // Exactly four hex digits: `from_str_radix` alone would take a
        // leading `+`.
        let v = chunk.iter().try_fold(0u32, |v, &b| {
            char::from(b)
                .to_digit(16)
                .map(|d| v << 4 | d)
                .ok_or_else(|| DeError::syntax("invalid \\u escape"))
        })?;
        self.pos += 4;
        Ok(v)
    }

    /// Reads an object, calling `entry` with each key; `entry` must read
    /// or skip that key's value.
    ///
    /// # Errors
    ///
    /// Fails on any other value, on malformed input and with the first
    /// error `entry` returns.
    pub fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        if self.peek()? != b'{' {
            return Err(self.unexpected("object"));
        }
        self.pos += 1;
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entry(self, &key)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(DeError::syntax(format!(
                        "expected `,` or `}}` in object, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    /// Reads an array, calling `element` once per element; `element`
    /// must read or skip it.
    ///
    /// # Errors
    ///
    /// Fails on any other value, on malformed input and with the first
    /// error `element` returns.
    pub fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        if self.peek()? != b'[' {
            return Err(self.unexpected("array"));
        }
        self.pos += 1;
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(());
                }
                other => {
                    return Err(DeError::syntax(format!(
                        "expected `,` or `]` in array, got `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    /// Skips one value, checking that it is well formed.
    ///
    /// # Errors
    ///
    /// Fails on malformed input.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek()? {
            b'{' => self.object(|r, _| r.skip_value()),
            b'[' => self.array(Self::skip_value),
            b'"' => self.string().map(drop),
            b't' => self.literal("true"),
            b'f' => self.literal("false"),
            b'n' => self.literal("null"),
            b'-' | b'0'..=b'9' => self.number("number").map(drop),
            other => Err(DeError::syntax(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    /// Reads the value under an object key, which may repeat.
    ///
    /// A value that is well formed but of the wrong shape is skipped,
    /// and its error returned inside `Ok`, so that a later value under
    /// the same key can still replace it.
    ///
    /// # Errors
    ///
    /// Fails only on malformed input.
    pub fn read_field<T: crate::Deserialize>(&mut self) -> Result<Result<T, DeError>, DeError> {
        self.read_field_with(T::deserialize)
    }

    /// [`read_field`](Reader::read_field) with `read` reading the value.
    ///
    /// # Errors
    ///
    /// Fails only on malformed input.
    pub fn read_field_with<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DeError>,
    ) -> Result<Result<T, DeError>, DeError> {
        let start = self.pos;
        let value = read(self);
        if value.is_err() {
            self.pos = start;
            self.skip_value()?;
        }
        Ok(value)
    }

    /// Scans the object ahead for the string under `key` (the last one
    /// if the key repeats) without consuming it: the discriminant of an
    /// internally tagged enum named `ty`.
    ///
    /// The scan reads the object's keys, and the tag's value, with the
    /// string parser, and skips every other value by matching brackets
    /// and quotes only. It validates nothing else: the variant's read
    /// that follows does, byte by byte.
    ///
    /// # Errors
    ///
    /// Fails when the next value is not an object or has no string under
    /// `key`. Input the scan cannot follow fails with a shape error
    /// rather than a syntax error, since the scan has skipped what a
    /// syntax error might name first; `serde_json`, which re-checks the
    /// document on any shape error, then reports the first one.
    pub fn tag(&self, key: &str, ty: &str) -> Result<Cow<'a, str>, DeError> {
        let mut scan = self.clone();
        if scan.peek()? != b'{' {
            return Err(scan.unexpected(&format!("{ty} object")));
        }
        match scan.find_tag(key) {
            Ok(Some(Some(tag))) => Ok(tag),
            Ok(Some(None)) => Err(DeError::msg(format!(
                "tag `{key}` of {ty} must be a string"
            ))),
            Ok(None) => Err(DeError::msg(format!("missing tag `{key}` for {ty}"))),
            Err(_) => Err(DeError::msg(format!("malformed {ty} object"))),
        }
    }

    /// The last value under `key` in the object that starts here: `None`
    /// when the key is absent, `Some(None)` when its value is not a
    /// string.
    fn find_tag(&mut self, key: &str) -> Result<Option<Option<Cow<'a, str>>>, DeError> {
        self.expect(b'{')?;
        let mut found = None;
        if self.peek()? == b'}' {
            return Ok(found);
        }
        loop {
            let k = self.string()?;
            self.expect(b':')?;
            if k == key && self.peek()? == b'"' {
                found = Some(Some(self.string()?));
            } else {
                if k == key {
                    found = Some(None);
                }
                self.pass_value()?;
            }
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => return Ok(found),
                _ => return Err(DeError::syntax("expected `,` or `}` in object")),
            }
        }
    }

    /// Moves past one value by matching brackets and quotes, without
    /// checking what lies between them: a scalar ends at the next `,`,
    /// `}`, `]` or whitespace.
    fn pass_value(&mut self) -> Result<(), DeError> {
        let bytes = self.bytes();
        let mut depth = 0usize;
        self.skip_ws();
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'"' => {
                    self.pass_string()?;
                    if depth == 0 {
                        return Ok(());
                    }
                    continue;
                }
                b'{' | b'[' => depth += 1,
                b'}' | b']' | b',' | b' ' | b'\t' | b'\n' | b'\r' if depth == 0 => return Ok(()),
                b'}' | b']' => {
                    depth -= 1;
                    if depth == 0 {
                        self.pos += 1;
                        return Ok(());
                    }
                }
                _ => {}
            }
            self.pos += 1;
        }
        Err(DeError::syntax("unexpected end of input"))
    }

    /// Moves past the string that starts here, stepping over escapes.
    fn pass_string(&mut self) -> Result<(), DeError> {
        self.pos += 1;
        loop {
            let rest = self.bytes().get(self.pos..).unwrap_or_default();
            let run = find_quote_or_backslash(rest)
                .ok_or_else(|| DeError::syntax("unterminated string"))?;
            let quote = rest.get(run) == Some(&b'"');
            // Past the quote, or past the backslash and the byte it escapes.
            self.pos += run + if quote { 1 } else { 2 };
            if quote {
                return Ok(());
            }
        }
    }
}

/// Offset of the first `"` or `\\` in `bytes`, testing eight bytes at a
/// time: a long string, such as a base64 envelope, is mostly one run.
pub(crate) fn find_quote_or_backslash(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    // Sets the top bit of each byte of `word` equal to `b`. A byte above
    // a set one may be set spuriously, so only the lowest mark is exact.
    let marks = |word: u64, b: u8| {
        let x = word ^ (ONES * u64::from(b));
        x.wrapping_sub(ONES) & !x & HIGHS
    };
    let (words, tail) = bytes.as_chunks::<8>();
    for (i, word) in words.iter().enumerate() {
        let word = u64::from_le_bytes(*word);
        let found = marks(word, b'"') | marks(word, b'\\');
        if found != 0 {
            return Some(i * 8 + found.trailing_zeros() as usize / 8);
        }
    }
    let offset = words.len() * 8;
    tail.iter()
        .position(|&b| b == b'"' || b == b'\\')
        .map(|p| offset + p)
}
