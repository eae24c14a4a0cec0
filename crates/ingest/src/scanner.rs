//! The malware data-filtration service.
//!
//! §IV-B1: "the ingestion service employs a data filtration system to
//! determine if the data contains any malware. If so, the filtration
//! services filter out the record and update the blockchain."
//! Signature-based scanning over the decrypted upload bytes; the default
//! database carries a test signature playing the role of the EICAR
//! string.

/// The built-in test signature (an EICAR-style marker for exercising the
/// rejection path end to end).
pub const TEST_SIGNATURE: &[u8] = b"X5O!HC-MALWARE-TEST-PAYLOAD!H+H*";

/// A malware detection.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Detection {
    /// Which signature matched.
    pub signature_name: String,
    /// Byte offset of the first match.
    pub offset: usize,
}

/// A signature-based scanner.
#[derive(Clone, Debug)]
pub struct MalwareScanner {
    signatures: Vec<(String, Vec<u8>)>,
}

impl Default for MalwareScanner {
    fn default() -> Self {
        MalwareScanner {
            signatures: vec![("hc-test-signature".to_owned(), TEST_SIGNATURE.to_vec())],
        }
    }
}

impl MalwareScanner {
    /// A scanner with the built-in test signature.
    pub fn new() -> Self {
        MalwareScanner::default()
    }

    /// Adds a signature to the database.
    ///
    /// # Panics
    ///
    /// Panics on an empty pattern (it would match everything).
    pub fn add_signature(&mut self, name: &str, pattern: &[u8]) {
        assert!(!pattern.is_empty(), "empty signatures are not allowed");
        self.signatures.push((name.to_owned(), pattern.to_vec()));
    }

    /// Number of signatures loaded.
    pub fn signature_count(&self) -> usize {
        self.signatures.len()
    }

    /// Scans `data`, returning the first detection if any.
    pub fn scan(&self, data: &[u8]) -> Option<Detection> {
        for (name, pattern) in &self.signatures {
            if let Some(offset) = find(data, pattern) {
                return Some(Detection {
                    signature_name: name.clone(),
                    offset,
                });
            }
        }
        None
    }
}

/// The first offset of `needle` in `haystack`: skips to each occurrence of
/// the needle's first byte and compares the rest only there.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    let last_start = haystack.len().checked_sub(needle.len())?;
    let mut from = 0;
    while let Some(skip) = haystack
        .get(from..=last_start)?
        .iter()
        .position(|&b| b == first)
    {
        let at = from + skip;
        if haystack.get(at + 1..at + needle.len()) == Some(rest) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The window-by-window search `find` replaced, kept as the reference
    /// the differential test compares against.
    fn find_oracle(haystack: &[u8], needle: &[u8]) -> Option<usize> {
        if needle.len() > haystack.len() {
            return None;
        }
        haystack.windows(needle.len()).position(|w| w == needle)
    }

    #[test]
    fn clean_data_passes() {
        let scanner = MalwareScanner::new();
        assert!(scanner.scan(b"{\"resourceType\":\"Patient\"}").is_none());
        assert!(scanner.scan(b"").is_none());
    }

    #[test]
    fn test_signature_detected() {
        let scanner = MalwareScanner::new();
        let mut payload = b"benign prefix ".to_vec();
        payload.extend_from_slice(TEST_SIGNATURE);
        let detection = scanner.scan(&payload).unwrap();
        assert_eq!(detection.signature_name, "hc-test-signature");
        assert_eq!(detection.offset, 14);
    }

    #[test]
    fn custom_signature_detected() {
        let mut scanner = MalwareScanner::new();
        scanner.add_signature("evil-marker", b"\xde\xad\xbe\xef");
        assert_eq!(scanner.signature_count(), 2);
        let detection = scanner.scan(b"xx\xde\xad\xbe\xefyy").unwrap();
        assert_eq!(detection.signature_name, "evil-marker");
    }

    #[test]
    fn needle_longer_than_haystack() {
        let scanner = MalwareScanner::new();
        assert!(scanner.scan(b"x").is_none());
    }

    #[test]
    #[should_panic(expected = "empty signatures")]
    fn empty_signature_panics() {
        MalwareScanner::new().add_signature("bad", b"");
    }

    #[test]
    fn find_agrees_with_the_oracle_at_the_edges() {
        let needle = b"abcab";
        let cases: [&[u8]; 9] = [
            b"abcab",          // the whole haystack
            b"abcabxxxx",      // at offset 0
            b"xxxxabcab",      // at the end
            b"ababcab",        // a partial match overlapping the real one at 2
            b"aaaaabcab",      // runs of the first byte before the match
            b"axaxaxax",       // first-byte-only near misses
            b"abcaXabcaXabca", // near misses that fail on the last byte
            b"abca",           // shorter than the needle
            b"",
        ];
        for haystack in cases {
            assert_eq!(
                find(haystack, needle),
                find_oracle(haystack, needle),
                "{:?}",
                String::from_utf8_lossy(haystack)
            );
        }
        assert_eq!(find(b"ababcab", needle), Some(2));
        assert_eq!(find(b"xa", b"a"), Some(1));
    }

    proptest! {
        #[test]
        fn find_matches_the_window_oracle(
            noise in proptest::collection::vec(0u8..3, 0..4096),
            needle in proptest::collection::vec(0u8..3, 1..6),
            plant in proptest::collection::vec(0usize..4096, 0..3),
        ) {
            // A three-letter alphabet makes first-byte hits, near misses
            // and overlapping partial matches common.
            let mut haystack = noise;
            for at in plant {
                let at = at % (haystack.len() + 1);
                haystack.splice(at..at, needle.iter().copied());
            }
            prop_assert_eq!(find(&haystack, &needle), find_oracle(&haystack, &needle));
            prop_assert_eq!(find(&needle, &needle), Some(0));
        }
    }
}
