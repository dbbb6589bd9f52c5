//! Packed flag vectors: one bit per qubit or check, LSB-first in `u64` words.
//!
//! Bit `i` of a vector is bit `i % 64` of word `i / 64`. Bits at and above a
//! vector's length are always zero, so two vectors of one length are equal
//! exactly when their words are, a count is a sum of `count_ones`, and a walk
//! over the set bits ([`Bits::ones`]) needs no mask. Every type here keeps that
//! invariant: writes past the length panic.

use std::fmt;

/// Number of `u64` words that hold `len` bits.
#[must_use]
pub(crate) const fn words_for(len: usize) -> usize {
    len.div_ceil(64)
}

/// A borrowed, read-only packed flag vector of `len` bits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Bits<'a> {
    words: &'a [u64],
    len: usize,
}

impl<'a> Bits<'a> {
    pub(crate) fn new(words: &'a [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), words_for(len));
        Bits { words, len }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(self) -> usize {
        self.len
    }

    /// `true` for a zero-length vector.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Flag `i`.
    ///
    /// # Panics
    /// Panics if `i` is past the last word; debug builds also panic for any
    /// `i >= len` (release builds read a clear padding bit there).
    #[must_use]
    #[inline]
    pub fn get(self, i: usize) -> bool {
        debug_assert!(i < self.len, "flag {i} out of range for {} flags", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// The packed words; bits at and above `len` are zero.
    #[must_use]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Number of set flags.
    #[must_use]
    pub fn count_ones(self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// `true` when any flag is set.
    #[must_use]
    pub fn any(self) -> bool {
        self.words.iter().any(|&word| word != 0)
    }

    /// The indices of the set flags, ascending.
    pub fn ones(self) -> impl Iterator<Item = usize> + 'a {
        SetBits::new(self.words.iter().copied())
    }

    /// The indices where these flags and `other` differ, ascending.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn differences(self, other: Bits<'a>) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(self.len, other.len, "comparing flags of different lengths");
        SetBits::new(self.words.iter().zip(other.words).map(|(a, b)| a ^ b))
    }

    /// Every flag in order.
    pub fn iter(self) -> impl ExactSizeIterator<Item = bool> + 'a {
        (0..self.len).map(move |i| self.words[i / 64] >> (i % 64) & 1 == 1)
    }

    /// The flags as one `bool` per entry.
    #[must_use]
    pub fn to_vec(self) -> Vec<bool> {
        self.iter().collect()
    }
}

impl fmt::Debug for Bits<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flags: String = self.iter().map(|flag| if flag { '1' } else { '0' }).collect();
        write!(f, "Bits({flags})")
    }
}

/// The positions of the set bits of a word sequence, ascending, found with
/// `trailing_zeros`.
struct SetBits<I> {
    words: I,
    /// The not yet visited bits of the current word.
    word: u64,
    /// Position of the current word's bit 0.
    base: usize,
    /// Position of the next word's bit 0.
    next_base: usize,
}

impl<I: Iterator<Item = u64>> SetBits<I> {
    fn new(words: I) -> Self {
        SetBits { words, word: 0, base: 0, next_base: 0 }
    }
}

impl<I: Iterator<Item = u64>> Iterator for SetBits<I> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = self.words.next()?;
            self.base = self.next_base;
            self.next_base += 64;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// A mutable packed flag vector of `len` bits, borrowed from a [`BitVec`] or
/// a [`crate::RunRecord`].
pub struct BitsMut<'a> {
    words: &'a mut [u64],
    len: usize,
}

impl<'a> BitsMut<'a> {
    pub(crate) fn new(words: &'a mut [u64], len: usize) -> Self {
        debug_assert_eq!(words.len(), words_for(len));
        BitsMut { words, len }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the same flags.
    #[must_use]
    pub fn as_bits(&self) -> Bits<'_> {
        Bits::new(self.words, self.len)
    }

    /// Sets flag `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "flag {i} out of range for {} flags", self.len);
        let word = &mut self.words[i / 64];
        *word = *word & !(1 << (i % 64)) | u64::from(value) << (i % 64);
    }

    /// Flips flag `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn toggle(&mut self, i: usize) {
        assert!(i < self.len, "flag {i} out of range for {} flags", self.len);
        self.words[i / 64] ^= 1u64 << (i % 64);
    }

    /// Copies `source` into these flags.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn copy_from(&mut self, source: Bits<'_>) {
        assert_eq!(self.len, source.len, "copying flags between different lengths");
        self.words.copy_from_slice(source.words);
    }

    /// The packed words, for a codec that fills them whole. Bits at and above
    /// `len` must be left zero; [`Bits`] equality and counts rely on it.
    pub fn words_mut(&mut self) -> &mut [u64] {
        self.words
    }
}

/// An owned packed flag vector of `len` bits.
#[derive(PartialEq, Eq, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

// Hand-written so `clone_from` reuses the destination's allocation:
// checkpoint restore copies frames into an existing simulator many times per
// shot.
impl Clone for BitVec {
    fn clone(&self) -> Self {
        BitVec { words: self.words.clone(), len: self.len }
    }

    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.len = source.len;
    }
}

impl BitVec {
    /// `len` clear flags.
    #[must_use]
    pub fn new(len: usize) -> Self {
        BitVec { words: vec![0; words_for(len)], len }
    }

    /// Number of flags.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` for a zero-length vector.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only view of the flags.
    #[must_use]
    pub fn as_bits(&self) -> Bits<'_> {
        Bits::new(&self.words, self.len)
    }

    /// Mutable view of the flags.
    pub fn as_bits_mut(&mut self) -> BitsMut<'_> {
        BitsMut::new(&mut self.words, self.len)
    }

    /// Flag `i` (see [`Bits::get`]).
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.as_bits().get(i)
    }

    /// Sets flag `i` to `value`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        self.as_bits_mut().set(i, value);
    }

    /// Flips flag `i`.
    ///
    /// # Panics
    /// Panics if `i >= len`.
    pub fn toggle(&mut self, i: usize) {
        self.as_bits_mut().toggle(i);
    }

    /// Clears every flag in place.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set flags.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.as_bits().count_ones()
    }

    /// `true` when any flag is set.
    #[must_use]
    pub fn any(&self) -> bool {
        self.as_bits().any()
    }
}

impl From<Bits<'_>> for BitVec {
    fn from(bits: Bits<'_>) -> Self {
        BitVec { words: bits.words.to_vec(), len: bits.len }
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(flags: I) -> Self {
        let mut bits = BitVec::default();
        for flag in flags {
            if bits.len % 64 == 0 {
                bits.words.push(0);
            }
            bits.words[bits.len / 64] |= u64::from(flag) << (bits.len % 64);
            bits.len += 1;
        }
        bits
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_bits().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize) -> Vec<bool> {
        (0..len).map(|i| i % 3 == 0 || i % 7 == 5).collect()
    }

    #[test]
    fn packing_matches_bools_across_word_boundaries() {
        for len in [0, 1, 63, 64, 65, 130, 257] {
            let flags = pattern(len);
            let bits: BitVec = flags.iter().copied().collect();
            assert_eq!(bits.len(), len);
            assert_eq!(bits.as_bits().to_vec(), flags);
            assert_eq!(bits.count_ones(), flags.iter().filter(|&&f| f).count());
            let ones: Vec<usize> = bits.as_bits().ones().collect();
            let expected: Vec<usize> = (0..len).filter(|&i| flags[i]).collect();
            assert_eq!(ones, expected, "len {len}");
            let none = BitVec::new(len);
            assert_eq!(bits.as_bits().differences(none.as_bits()).collect::<Vec<_>>(), expected);
            assert_eq!(bits.as_bits().words().len(), words_for(len));
        }
    }

    #[test]
    fn set_toggle_and_clear_keep_padding_zero() {
        let mut bits = BitVec::new(70);
        bits.set(69, true);
        bits.toggle(3);
        bits.toggle(64);
        bits.toggle(64);
        assert!(bits.get(69) && bits.get(3) && !bits.get(64));
        assert_eq!(bits.as_bits().words(), &[1 << 3, 1 << 5]);
        bits.clear();
        assert!(!bits.any());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn writes_past_the_length_panic() {
        BitVec::new(5).set(5, true);
    }

    #[test]
    fn clone_from_reuses_the_allocation() {
        let source: BitVec = pattern(100).into_iter().collect();
        let mut dest = BitVec::new(100);
        let before = dest.words.as_ptr();
        dest.clone_from(&source);
        assert_eq!(dest, source);
        assert_eq!(dest.words.as_ptr(), before);
    }
}
