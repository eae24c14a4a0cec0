//! RFC 4648 base64, standard alphabet with padding: the text of a
//! [`Sealed`](crate::aead::Sealed) envelope's JSON string.
//!
//! Decoding is strict, so each byte string has exactly one accepted
//! text: the length is a multiple of four, only alphabet characters
//! appear, `=` pads only the last one or two places, and the bits the
//! padding leaves unused are zero.

use std::fmt;

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`VALUES`]. Every sextet is below
/// 64, so one OR over many lookups tells whether any was not a symbol.
const INVALID: u8 = 0x80;

/// Each byte's sextet, or [`INVALID`].
const VALUES: [u8; 256] = {
    let mut table = [INVALID; 256];
    let mut sextet = 0;
    while sextet < 64 {
        table[ALPHABET[sextet] as usize] = sextet as u8;
        sextet += 1;
    }
    table
};

/// Why a text is not the canonical base64 of any bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Base64Error {
    /// The length is not a multiple of four, or the text decodes to
    /// another length than the output holds.
    Length,
    /// A character outside the alphabet, or `=` before the padding.
    Symbol,
    /// The padding leaves a set bit unused.
    Padding,
}

impl fmt::Display for Base64Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Base64Error::Length => "base64 of the wrong length",
            Base64Error::Symbol => "invalid base64 character",
            Base64Error::Padding => "non-zero bits under base64 padding",
        })
    }
}

/// The text length of `n` bytes: four characters per started group of
/// three.
pub(crate) const fn encoded_len(n: usize) -> usize {
    n.div_ceil(3) * 4
}

/// The byte length `text` decodes to, from its length and padding.
///
/// # Errors
///
/// [`Base64Error::Length`] when the length is not a multiple of four.
pub(crate) fn decoded_len(text: &[u8]) -> Result<usize, Base64Error> {
    if !text.len().is_multiple_of(4) {
        return Err(Base64Error::Length);
    }
    let padding = match text {
        [.., b'=', b'='] => 2,
        [.., b'='] => 1,
        _ => 0,
    };
    Ok(text.len() / 4 * 3 - padding)
}

/// The two symbols of each 12-bit value, so that a group of three bytes
/// takes two lookups.
const PAIRS: [[u8; 2]; 4096] = {
    let mut table = [[0u8; 2]; 4096];
    let mut bits = 0;
    while bits < 4096 {
        table[bits] = [ALPHABET[bits >> 6], ALPHABET[bits & 63]];
        bits += 1;
    }
    table
};

fn pair(bits: u32) -> [u8; 2] {
    // Masked to twelve bits, the index is inside the 4096-entry table.
    PAIRS[(bits & 0xfff) as usize] // hc-lint: allow(panic-index)
}

fn encode_group([a, b, c]: [u8; 3]) -> [u8; 4] {
    let n = u32::from(a) << 16 | u32::from(b) << 8 | u32::from(c);
    let ([s0, s1], [s2, s3]) = (pair(n >> 12), pair(n));
    [s0, s1, s2, s3]
}

/// Four groups at once: each half is one 48-bit load whose four 12-bit
/// fields take one lookup each, and the 16 symbols are one store.
fn encode_four_groups([a, b, c, d, e, f, g, h, i, j, k, l]: [u8; 12]) -> [u8; 16] {
    let high = u64::from_be_bytes([a, b, c, d, e, f, 0, 0]);
    let low = u64::from_be_bytes([g, h, i, j, k, l, 0, 0]);
    let field = |half: u64, shift: u32| pair((half >> shift) as u32);
    let [s0, s1] = field(high, 52);
    let [s2, s3] = field(high, 40);
    let [s4, s5] = field(high, 28);
    let [s6, s7] = field(high, 16);
    let [s8, s9] = field(low, 52);
    let [s10, s11] = field(low, 40);
    let [s12, s13] = field(low, 28);
    let [s14, s15] = field(low, 16);
    [
        s0, s1, s2, s3, s4, s5, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15,
    ]
}

/// Appends the base64 of `bytes` to `out`, padding the last group.
pub(crate) fn encode_into(bytes: &[u8], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + encoded_len(bytes.len()), 0);
    let (wide, tail) = bytes.as_chunks::<12>();
    let (wide_out, tail_out) = out.split_at_mut(start).1.split_at_mut(wide.len() * 16);
    for (symbols, bytes) in wide_out.as_chunks_mut::<16>().0.iter_mut().zip(wide) {
        *symbols = encode_four_groups(*bytes);
    }
    let (groups, rest) = tail.as_chunks::<3>();
    let (quads, _) = tail_out.as_chunks_mut::<4>();
    let (full, last) = quads.split_at_mut(groups.len());
    for (quad, group) in full.iter_mut().zip(groups) {
        *quad = encode_group(*group);
    }
    let padded = match *rest {
        [a] => {
            let [s0, s1, ..] = encode_group([a, 0, 0]);
            [s0, s1, b'=', b'=']
        }
        [a, b] => {
            let [s0, s1, s2, _] = encode_group([a, b, 0]);
            [s0, s1, s2, b'=']
        }
        // Whole groups only: nothing to pad.
        _ => return,
    };
    if let Some(quad) = last.first_mut() {
        *quad = padded;
    }
}

/// The four sextets of `quad`, each [`INVALID`] if not a symbol.
fn sextets(quad: [u8; 4]) -> [u8; 4] {
    // A u8 index is always inside the 256-entry table.
    quad.map(|ch| VALUES[usize::from(ch)]) // hc-lint: allow(panic-index)
}

/// The 24 bits of four sextets; garbage if one is [`INVALID`].
fn join([a, b, c, d]: [u8; 4]) -> u32 {
    u32::from(a) << 18 | u32::from(b) << 12 | u32::from(c) << 6 | u32::from(d)
}

/// Decodes the canonical base64 `text` into `out`, which must be exactly
/// [`decoded_len`] bytes long.
///
/// # Errors
///
/// [`Base64Error::Length`] when `text`'s length is not a multiple of
/// four or it decodes to another length than `out`'s;
/// [`Base64Error::Symbol`] for a character outside the alphabet or `=`
/// anywhere but the last two places; [`Base64Error::Padding`] when the
/// bits the padding leaves unused are not zero. `out` is then
/// unspecified.
pub(crate) fn decode_into(text: &[u8], out: &mut [u8]) -> Result<(), Base64Error> {
    if decoded_len(text)? != out.len() {
        return Err(Base64Error::Length);
    }
    let (quads, _) = text.as_chunks::<4>();
    let Some((&last, full)) = quads.split_last() else {
        return Ok(());
    };
    let (triples, tail) = out.as_chunks_mut::<3>();
    // Every character but the padding goes through the table, with no
    // branch per character: one OR tells whether any missed it.
    let mut seen = 0u8;
    for (triple, quad) in triples.iter_mut().zip(full) {
        let values = sextets(*quad);
        let [a, b, c, d] = values;
        seen |= a | b | c | d;
        let [_, b0, b1, b2] = join(values).to_be_bytes();
        *triple = [b0, b1, b2];
    }
    // The last group carries the padding: its `=` read as zero sextets,
    // and the bits they leave over the bytes must be zero.
    let [a, b, c, d] = sextets(last);
    let (values, unused) = match tail.len() {
        1 => ([a, b, 0, 0], 0xffff),
        2 => ([a, b, c, 0], 0xff),
        _ => ([a, b, c, d], 0),
    };
    seen |= values.iter().fold(0, |seen, v| seen | v);
    if seen & INVALID != 0 {
        return Err(Base64Error::Symbol);
    }
    let bits = join(values);
    if bits & unused != 0 {
        return Err(Base64Error::Padding);
    }
    let [_, b0, b1, b2] = bits.to_be_bytes();
    let last_bytes = [b0, b1, b2];
    match triples.get_mut(full.len()) {
        Some(triple) => *triple = last_bytes,
        None => {
            for (byte, decoded) in tail.iter_mut().zip(last_bytes) {
                *byte = decoded;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoding read off bit by bit: each run of six bits, most
    /// significant first, names a symbol, the last run filled with zero
    /// bits, then `=` up to a multiple of four.
    fn reference_encode(bytes: &[u8]) -> String {
        let bits: Vec<u8> = bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
            .collect();
        let mut out = String::new();
        for run in bits.chunks(6) {
            let sextet = (0..6).fold(0usize, |v, i| v << 1 | usize::from(run.get(i) == Some(&1)));
            out.push(char::from(ALPHABET[sextet]));
        }
        while !out.len().is_multiple_of(4) {
            out.push('=');
        }
        out
    }

    fn encode(bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_into(bytes, &mut out);
        out
    }

    fn decode(text: &[u8]) -> Result<Vec<u8>, Base64Error> {
        let mut out = vec![0u8; decoded_len(text)?];
        decode_into(text, &mut out)?;
        Ok(out)
    }

    #[test]
    fn rfc_4648_vectors() {
        for (bytes, text) in [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ] {
            assert_eq!(encode(bytes.as_bytes()), text.as_bytes());
            assert_eq!(decode(text.as_bytes()).unwrap(), bytes.as_bytes());
        }
        assert_eq!(encode(&[0xfb, 0xff]), b"+/8=");
    }

    #[test]
    fn non_canonical_texts_are_rejected() {
        let err = |text: &str| decode(text.as_bytes()).unwrap_err();
        assert_eq!(err("Zm9"), Base64Error::Length);
        assert_eq!(err("Zm9vY"), Base64Error::Length);
        assert_eq!(err("Zm9v!A=="), Base64Error::Symbol);
        assert_eq!(err("Zm-v"), Base64Error::Symbol, "URL-safe alphabet");
        assert_eq!(err("Zm9v\nA=="), Base64Error::Symbol);
        assert_eq!(err("Zg==Zm9v"), Base64Error::Symbol, "= before the end");
        assert_eq!(err("Z=8="), Base64Error::Symbol, "= inside the last group");
        assert_eq!(err("Z==="), Base64Error::Symbol, "three =");
        assert_eq!(err("===="), Base64Error::Symbol);
        assert_eq!(err("Zh=="), Base64Error::Padding, "unused bits of one byte");
        assert_eq!(
            err("Zm9="),
            Base64Error::Padding,
            "unused bits of two bytes"
        );
        // The output must have the decoded length.
        assert_eq!(decode_into(b"Zm9v", &mut [0; 2]), Err(Base64Error::Length));
    }

    proptest! {
        #[test]
        fn encoding_matches_the_bitwise_reference_and_decodes_back(
            bytes in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            let text = encode(&bytes);
            prop_assert_eq!(text.len(), 4 * bytes.len().div_ceil(3));
            prop_assert_eq!(text.len(), encoded_len(bytes.len()));
            prop_assert_eq!(&text, reference_encode(&bytes).as_bytes());
            prop_assert_eq!(decode(&text), Ok(bytes));
        }

        #[test]
        fn sealed_json_is_the_reference_base64_of_its_wire(
            data in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            // Ciphertexts of 0 to 3 bytes put every place of the
            // tenth group, where the tag meets the ciphertext, and
            // every padding at the end of the text.
            let key = crate::aead::SecretKey::from_bytes([3u8; 32]);
            for len in [0, 1, 2, 3, data.len()] {
                let plaintext = &data[..len.min(data.len())];
                let sealed = crate::aead::seal(&key, plaintext, b"");
                let json = serde_json::to_string(&sealed).unwrap();
                prop_assert_eq!(&json, &format!("\"{}\"", reference_encode(&sealed.to_wire())));
                prop_assert_eq!(serde_json::from_str::<crate::aead::Sealed>(&json).unwrap(), sealed);
            }
        }

        #[test]
        fn appending_keeps_what_the_buffer_held(
            prefix in proptest::collection::vec(any::<u8>(), 0..8),
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
        ) {
            let mut out = prefix.clone();
            encode_into(&bytes, &mut out);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &encode(&bytes)[..]);
        }
    }
}
