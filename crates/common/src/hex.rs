//! Hexadecimal encoding and constant-time byte comparison.

use std::fmt;

/// Error returned when decoding malformed hexadecimal input.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeHexError {
    /// The input length was odd.
    OddLength,
    /// A character was not a hexadecimal digit.
    InvalidDigit {
        /// Byte offset of the offending character.
        index: usize,
    },
}

impl fmt::Display for DecodeHexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeHexError::OddLength => write!(f, "hex string has odd length"),
            DecodeHexError::InvalidDigit { index } => {
                write!(f, "invalid hex digit at index {index}")
            }
        }
    }
}

impl std::error::Error for DecodeHexError {}

/// Lowercase digit pair of each byte value.
const PAIRS: [[u8; 2]; 256] = {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut byte = 0;
    while byte < 256 {
        table[byte] = [DIGITS[byte >> 4], DIGITS[byte & 0xf]];
        byte += 1;
    }
    table
};

/// Marks a byte that is not a hex digit in [`VALUES`].
const NOT_HEX: u8 = 0xff;

/// Value of each byte as a hex digit (either case), or [`NOT_HEX`].
const VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut digit = 0;
    while digit < 16 {
        table[b"0123456789abcdef"[digit] as usize] = digit as u8;
        table[b"0123456789ABCDEF"[digit] as usize] = digit as u8;
        digit += 1;
    }
    table
};

/// Encodes bytes as lowercase hexadecimal.
///
/// # Examples
///
/// ```
/// assert_eq!(hc_common::hex::encode(&[0xde, 0xad]), "dead");
/// ```
pub fn encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    encode_into(bytes, &mut out);
    // Every digit is ASCII, so the lossy branch is never taken.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Appends the lowercase hexadecimal of `bytes` to `out`.
///
/// # Examples
///
/// ```
/// let mut out = b"0x".to_vec();
/// hc_common::hex::encode_into(&[0xbe, 0xef], &mut out);
/// assert_eq!(out, b"0xbeef");
/// ```
pub fn encode_into(bytes: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + bytes.len() * 2, 0);
    let (pairs, _) = out.split_at_mut(start).1.as_chunks_mut::<2>();
    for (pair, &b) in pairs.iter_mut().zip(bytes) {
        // A u8 index is always inside the 256-entry table.
        *pair = PAIRS[usize::from(b)]; // hc-lint: allow(panic-index)
    }
}

/// Decodes a hexadecimal string (either case) into bytes.
///
/// # Errors
///
/// Returns [`DecodeHexError`] if the input has odd length or contains a
/// non-hex character; the error names the first such character.
///
/// # Examples
///
/// ```
/// assert_eq!(hc_common::hex::decode("DEad").unwrap(), vec![0xde, 0xad]);
/// ```
pub fn decode(s: &str) -> Result<Vec<u8>, DecodeHexError> {
    let (pairs, rest) = s.as_bytes().as_chunks::<2>();
    if !rest.is_empty() {
        return Err(DecodeHexError::OddLength);
    }
    let mut out = vec![0u8; pairs.len()];
    // Every digit value is below 16 and NOT_HEX has its top bit set, so
    // one OR over all lookups tells whether any byte was not a digit.
    let mut seen = 0u8;
    for (byte, &[hi, lo]) in out.iter_mut().zip(pairs) {
        // u8 indexes are always inside the 256-entry table.
        let (hi, lo) = (VALUES[usize::from(hi)], VALUES[usize::from(lo)]); // hc-lint: allow(panic-index)
        seen |= hi | lo;
        *byte = (hi << 4) | lo;
    }
    if seen & 0x80 != 0 {
        let index = s
            .bytes()
            .position(|b| !b.is_ascii_hexdigit())
            .unwrap_or_default();
        return Err(DecodeHexError::InvalidDigit { index });
    }
    Ok(out)
}

/// Compares two byte slices in time independent of their contents.
///
/// Returns `false` immediately only on length mismatch (length is public).
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn encode_known_values() {
        assert_eq!(encode(&[]), "");
        assert_eq!(encode(&[0x00, 0xff, 0x10]), "00ff10");
    }

    #[test]
    fn decode_rejects_odd_length() {
        assert_eq!(decode("abc"), Err(DecodeHexError::OddLength));
    }

    #[test]
    fn decode_rejects_bad_digit() {
        assert_eq!(decode("zz"), Err(DecodeHexError::InvalidDigit { index: 0 }));
        assert_eq!(decode("az"), Err(DecodeHexError::InvalidDigit { index: 1 }));
    }

    #[test]
    fn constant_time_eq_behaviour() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }

    /// The per-character codec the table-driven one replaced, kept as
    /// its oracle.
    fn encode_per_char(bytes: &[u8]) -> String {
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
            out.push(char::from_digit((b & 0xf) as u32, 16).unwrap());
        }
        out
    }

    fn decode_per_char(s: &str) -> Result<Vec<u8>, DecodeHexError> {
        if !s.len().is_multiple_of(2) {
            return Err(DecodeHexError::OddLength);
        }
        let bytes = s.as_bytes();
        let mut out = Vec::with_capacity(s.len() / 2);
        for i in (0..bytes.len()).step_by(2) {
            let hi = (bytes[i] as char)
                .to_digit(16)
                .ok_or(DecodeHexError::InvalidDigit { index: i })?;
            let lo = (bytes[i + 1] as char)
                .to_digit(16)
                .ok_or(DecodeHexError::InvalidDigit { index: i + 1 })?;
            out.push(((hi << 4) | lo) as u8);
        }
        Ok(out)
    }

    #[test]
    fn encode_into_appends() {
        let mut out = b"x".to_vec();
        encode_into(&[0x01, 0xab], &mut out);
        encode_into(&[], &mut out);
        assert_eq!(out, b"x01ab");
    }

    #[test]
    fn decode_reports_the_first_bad_character() {
        assert_eq!(
            decode("0g1z"),
            Err(DecodeHexError::InvalidDigit { index: 1 })
        );
        assert_eq!(decode("00ff\u{e9}"), decode_per_char("00ff\u{e9}"));
        assert_eq!(
            decode("\u{e9}00"),
            Err(DecodeHexError::InvalidDigit { index: 0 })
        );
        assert_eq!(decode("0\u{e9}"), Err(DecodeHexError::OddLength));
    }

    proptest! {
        #[test]
        fn tables_match_the_per_char_codec(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
            noise in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let enc = encode(&bytes);
            prop_assert_eq!(&enc, &encode_per_char(&bytes));
            // Hex text with some bytes replaced by arbitrary ASCII, so
            // the decoders see digits of both cases, bad characters at
            // any offset, and odd lengths.
            let text: String = enc
                .to_uppercase()
                .chars()
                .zip(noise.iter().chain(std::iter::repeat(&0)))
                .map(|(c, &n)| if n > 240 { char::from(n & 0x7f) } else if n % 2 == 0 { c.to_ascii_lowercase() } else { c })
                .chain((noise.len() % 3 == 0).then_some('a'))
                .collect();
            prop_assert_eq!(decode(&text), decode_per_char(&text));
        }

        #[test]
        fn round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let enc = encode(&bytes);
            prop_assert_eq!(decode(&enc).unwrap(), bytes);
        }

        #[test]
        fn uppercase_decodes_too(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let enc = encode(&bytes).to_uppercase();
            prop_assert_eq!(decode(&enc).unwrap(), bytes);
        }
    }
}
