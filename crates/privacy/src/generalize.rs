//! Generalization hierarchies for quasi-identifiers.

use serde::{Deserialize, Serialize};

/// An inclusive numeric range produced by generalization.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Range {
    /// Smallest value in the class.
    pub lo: u32,
    /// Largest value in the class.
    pub hi: u32,
}

impl Range {
    /// A single-value range.
    pub const fn point(v: u32) -> Self {
        Range { lo: v, hi: v }
    }

    /// Creates a range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "range lo must not exceed hi");
        Range { lo, hi }
    }

    /// Whether `v` falls in the range.
    pub const fn contains(&self, v: u32) -> bool {
        v >= self.lo && v <= self.hi
    }

    /// Width of the range (0 for a point).
    pub const fn width(&self) -> u32 {
        self.hi - self.lo
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.lo == self.hi {
            write!(f, "{}", self.lo)
        } else {
            write!(f, "{}-{}", self.lo, self.hi)
        }
    }
}

/// Generalizes an age to a fixed-width band (e.g. 37 → 35–39 for width 5).
pub fn age_band(age: u32, width: u32) -> Range {
    let width = width.max(1);
    let lo = (age / width) * width;
    Range::new(lo, lo + width - 1)
}

/// Truncates a ZIP code to its first `keep` digits (Safe Harbor keeps 3).
///
/// Non-digit input is masked entirely.
pub fn zip_prefix(zip: &str, keep: usize) -> String {
    if !zip.chars().all(|c| c.is_ascii_digit()) || zip.is_empty() {
        return "*****".to_owned();
    }
    let keep = keep.min(zip.len());
    let mut out: String = zip.chars().take(keep).collect();
    for _ in keep..zip.len() {
        out.push('*');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn age_bands() {
        assert_eq!(age_band(37, 5), Range::new(35, 39));
        assert_eq!(age_band(40, 5), Range::new(40, 44));
        assert_eq!(age_band(0, 10), Range::new(0, 9));
        assert_eq!(age_band(7, 1), Range::point(7));
    }

    #[test]
    fn zip_truncation() {
        assert_eq!(zip_prefix("62701", 3), "627**");
        assert_eq!(zip_prefix("62701", 5), "62701");
        assert_eq!(zip_prefix("627", 5), "627");
        assert_eq!(zip_prefix("abcde", 3), "*****");
        assert_eq!(zip_prefix("", 3), "*****");
    }

    #[test]
    fn range_display() {
        assert_eq!(Range::new(35, 39).to_string(), "35-39");
        assert_eq!(Range::point(7).to_string(), "7");
    }

    #[test]
    #[should_panic(expected = "lo must not exceed")]
    fn inverted_range_panics() {
        let _ = Range::new(5, 1);
    }

    proptest! {
        #[test]
        fn age_always_in_its_band(age in 0u32..120, width in 1u32..20) {
            prop_assert!(age_band(age, width).contains(age));
        }

        #[test]
        fn band_width_is_constant(age in 0u32..120, width in 1u32..20) {
            prop_assert_eq!(age_band(age, width).width(), width - 1);
        }
    }
}
