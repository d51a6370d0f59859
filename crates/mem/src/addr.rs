//! Byte addresses and cache-line geometry.
//!
//! The simulated machine uses 64-byte cache lines (Table 2) and
//! 64-bit words. Memory operations are word-granularity and must be
//! word-aligned.

use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Cache line size in bytes (Table 2 of the paper).
pub const LINE_BYTES: u64 = 64;
/// Word size in bytes. All simulated memory operations move one word.
pub const WORD_BYTES: u64 = 8;
/// Words per cache line.
pub const WORDS_PER_LINE: usize = (LINE_BYTES / WORD_BYTES) as usize;
const LINE_SHIFT: u32 = LINE_BYTES.trailing_zeros();

/// A byte address in the simulated physical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The cache line containing this address.
    pub fn line(self) -> LineAddr {
        LineAddr(self.0 >> LINE_SHIFT)
    }

    /// Index of this address's word within its cache line.
    ///
    /// # Panics
    ///
    /// Panics if the address is not word-aligned: the simulated ISA
    /// only performs aligned word accesses.
    pub fn word_index(self) -> usize {
        assert!(self.0.is_multiple_of(WORD_BYTES), "unaligned access to {self}");
        ((self.0 >> 3) & (WORDS_PER_LINE as u64 - 1)) as usize
    }

    /// Returns the address offset by `bytes` (may be negative).
    pub fn offset(self, bytes: i64) -> Addr {
        Addr(self.0.wrapping_add(bytes as u64))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Addr {
    fn from(v: u64) -> Self {
        Addr(v)
    }
}

/// A cache-line number (byte address divided by [`LINE_BYTES`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Byte address of the first word of the line.
    pub fn base(self) -> Addr {
        Addr(self.0 << LINE_SHIFT)
    }

    /// Byte address of word `idx` within the line.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= WORDS_PER_LINE`.
    pub fn word(self, idx: usize) -> Addr {
        assert!(idx < WORDS_PER_LINE, "word index {idx} out of line");
        Addr((self.0 << LINE_SHIFT) + (idx as u64 * WORD_BYTES))
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L0x{:x}", self.0)
    }
}

/// A multiplicative hasher for the simulator's address-keyed tables
/// (the directory's entries, backing memory, the bus owner ledger and
/// the machine's lock set), whose keys ([`Addr`], [`LineAddr`]) each
/// hash as one `u64`. Much cheaper than the default SipHash, and safe
/// here: the keys are simulated addresses, not adversarial input, and
/// nothing iterates these tables, so no iteration order can leak into
/// the output.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; rotate them
        // into the low bits the table indexes by (aligned addresses
        // would otherwise leave those zero).
        self.0.rotate_left(26)
    }
}

/// The [`std::hash::BuildHasher`] of [`WordHasher`], for
/// `HashMap<LineAddr, V, WordHash>` and its kin.
pub type WordHash = BuildHasherDefault<WordHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_extraction() {
        assert_eq!(Addr(0).line(), LineAddr(0));
        assert_eq!(Addr(63).line(), LineAddr(0));
        assert_eq!(Addr(64).line(), LineAddr(1));
        assert_eq!(Addr(0x1000).line(), LineAddr(0x40));
    }

    #[test]
    fn word_index_within_line() {
        assert_eq!(Addr(0).word_index(), 0);
        assert_eq!(Addr(8).word_index(), 1);
        assert_eq!(Addr(56).word_index(), 7);
        assert_eq!(Addr(64).word_index(), 0);
        assert_eq!(Addr(72 + 128).word_index(), 1);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_word_index_panics() {
        Addr(3).word_index();
    }

    #[test]
    fn line_base_and_word_roundtrip() {
        let l = LineAddr(5);
        assert_eq!(l.base(), Addr(320));
        assert_eq!(l.word(0), Addr(320));
        assert_eq!(l.word(7), Addr(376));
        for i in 0..WORDS_PER_LINE {
            assert_eq!(l.word(i).line(), l);
            assert_eq!(l.word(i).word_index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "out of line")]
    fn word_out_of_range_panics() {
        LineAddr(0).word(8);
    }

    #[test]
    fn offset_arithmetic() {
        assert_eq!(Addr(100).offset(28), Addr(128));
        assert_eq!(Addr(100).offset(-36), Addr(64));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(LineAddr(255).to_string(), "L0xff");
    }
}
