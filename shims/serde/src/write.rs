//! The compact JSON writer behind [`Serialize`](crate::Serialize).

use std::io::Write as _;

/// Appends compact JSON (no whitespace) to a byte buffer.
///
/// Every method writes one complete JSON token or value. Objects and
/// arrays are written through [`ObjectWriter`] and [`ArrayWriter`], which
/// place the separators.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// The JSON written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Makes room for at least `additional` more bytes, as
    /// [`Vec::reserve`] does: a value that knows its encoded length
    /// writes into an empty writer without reallocating.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.buf.extend_from_slice(b"null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.buf
            .extend_from_slice(if value { b"true" } else { b"false" });
    }

    /// Writes an unsigned integer in decimal.
    pub fn u128(&mut self, value: u128) {
        let mut digits = [0u8; 39];
        let mut start = digits.len();
        // Most values fit a u64, whose division is far cheaper.
        if let Ok(mut v) = u64::try_from(value) {
            loop {
                start -= 1;
                digits[start] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
        } else {
            let mut v = value;
            loop {
                start -= 1;
                digits[start] = b'0' + (v % 10) as u8;
                v /= 10;
                if v == 0 {
                    break;
                }
            }
        }
        self.buf.extend_from_slice(&digits[start..]);
    }

    /// Writes a signed integer in decimal.
    pub fn i128(&mut self, value: i128) {
        if value < 0 {
            self.buf.push(b'-');
        }
        self.u128(value.unsigned_abs());
    }

    /// Writes a float. Whole values below 1e15 keep a `.0` so they read
    /// back as floats; other finite values use `Display`; NaN and the
    /// infinities, which JSON cannot express, become `null`.
    pub fn f64(&mut self, value: f64) {
        // Writing into a Vec cannot fail.
        let _ = if !value.is_finite() {
            self.buf.write_all(b"null")
        } else if value.fract() == 0.0 && value.abs() < 1e15 {
            write!(self.buf, "{value:.1}")
        } else {
            write!(self.buf, "{value}")
        };
    }

    /// Writes `value` as a JSON string, escaping `"`, `\` and control
    /// characters.
    pub fn str(&mut self, value: &str) {
        self.buf.push(b'"');
        // Copy each run of bytes that needs no escape in one go. Every
        // escaped byte is ASCII, so runs end on char boundaries.
        let bytes = value.as_bytes();
        let mut run_start = 0;
        for (i, &b) in bytes.iter().enumerate() {
            if b != b'"' && b != b'\\' && b >= 0x20 {
                continue;
            }
            self.buf.extend_from_slice(&bytes[run_start..i]);
            match b {
                b'"' => self.buf.extend_from_slice(b"\\\""),
                b'\\' => self.buf.extend_from_slice(b"\\\\"),
                b'\n' => self.buf.extend_from_slice(b"\\n"),
                b'\r' => self.buf.extend_from_slice(b"\\r"),
                b'\t' => self.buf.extend_from_slice(b"\\t"),
                _ => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    self.buf.extend_from_slice(b"\\u00");
                    self.buf.push(HEX[usize::from(b >> 4)]);
                    self.buf.push(HEX[usize::from(b & 0xf)]);
                }
            }
            run_start = i + 1;
        }
        self.buf.extend_from_slice(&bytes[run_start..]);
        self.buf.push(b'"');
    }

    /// Writes a JSON string whose content `fill` appends to the buffer
    /// as is. `fill` must append only bytes that need no escape: UTF-8
    /// text without `"`, `\` or control characters, such as hex digits.
    pub fn str_unescaped(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        self.buf.push(b'"');
        fill(&mut self.buf);
        self.buf.push(b'"');
    }

    /// Starts an array; write its elements through the returned writer.
    pub fn array(&mut self) -> ArrayWriter<'_> {
        self.buf.push(b'[');
        ArrayWriter {
            out: self,
            first: true,
        }
    }

    /// Writes every item of `items` as one array.
    pub fn seq<'v, T, I>(&mut self, items: I)
    where
        T: crate::Serialize + ?Sized + 'v,
        I: IntoIterator<Item = &'v T>,
    {
        let mut array = self.array();
        for item in items {
            array.element(item);
        }
        array.end();
    }

    /// Starts an object; write its entries, in ascending key order,
    /// through the returned writer.
    pub fn object(&mut self) -> ObjectWriter<'_> {
        self.buf.push(b'{');
        ObjectWriter {
            out: self,
            first: true,
            tag: None,
        }
    }

    /// Starts an object that also holds the entry `tag: variant`, the
    /// discriminant of an internally tagged enum. The entry is written
    /// in key order among the others, and it replaces an entry with the
    /// same key.
    pub fn tagged_object<'w>(&'w mut self, tag: &'w str, variant: &'w str) -> ObjectWriter<'w> {
        self.buf.push(b'{');
        ObjectWriter {
            out: self,
            first: true,
            tag: Some((tag, variant)),
        }
    }
}

/// Writes the elements of one JSON array; see [`Writer::array`].
#[derive(Debug)]
pub struct ArrayWriter<'w> {
    out: &'w mut Writer,
    first: bool,
}

impl ArrayWriter<'_> {
    /// Writes the next element.
    pub fn element<T: crate::Serialize + ?Sized>(&mut self, value: &T) {
        if !self.first {
            self.out.buf.push(b',');
        }
        self.first = false;
        value.serialize(self.out);
    }

    /// Closes the array.
    pub fn end(self) {
        self.out.buf.push(b']');
    }
}

/// Writes the entries of one JSON object; see [`Writer::object`].
///
/// Entries must come in ascending byte order of their keys, the order a
/// `BTreeMap<String, _>` iterates in; the writer places a pending tag
/// entry among them by that order.
#[derive(Debug)]
pub struct ObjectWriter<'w> {
    out: &'w mut Writer,
    first: bool,
    tag: Option<(&'w str, &'w str)>,
}

impl ObjectWriter<'_> {
    /// Writes the entry `key: value`.
    pub fn field<T: crate::Serialize + ?Sized>(&mut self, key: &str, value: &T) {
        self.field_with(key, |out| value.serialize(out));
    }

    /// Writes the entry under `key` whose value `write` writes; `write`
    /// must write exactly one value.
    pub fn field_with(&mut self, key: &str, write: impl FnOnce(&mut Writer)) {
        if let Some((tag, variant)) = self.tag {
            if tag <= key {
                self.tag = None;
                self.entry(tag).str(variant);
                if tag == key {
                    // The tag replaces a field of the same name.
                    return;
                }
            }
        }
        write(self.entry(key));
    }

    /// Writes the separator and `key:`, returning the writer for the
    /// value.
    fn entry(&mut self, key: &str) -> &mut Writer {
        if !self.first {
            self.out.buf.push(b',');
        }
        self.first = false;
        self.out.str(key);
        self.out.buf.push(b':');
        self.out
    }

    /// Closes the object, writing the tag entry if no key came after it.
    pub fn end(mut self) {
        if let Some((tag, variant)) = self.tag.take() {
            self.entry(tag).str(variant);
        }
        self.out.buf.push(b'}');
    }
}
