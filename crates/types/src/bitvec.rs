//! A growable bit buffer used by the wire codecs.
//!
//! The guardian buffer analysis of the paper is stated in *bits*, and its
//! central result is a constraint on how many bits a star coupler may hold.
//! To make that constraint executable (the simulator's couplers really do
//! fill and drain a bit buffer) the codec layer works on an explicit bit
//! vector rather than on bytes.

use std::fmt;

/// A compact, growable vector of bits with MSB-first field packing.
///
/// Fields are appended most-significant-bit first, matching the serial
/// transmission order assumed by the TTP/C frame layouts.
///
/// # Example
///
/// ```
/// use tta_types::BitVec;
///
/// let mut bits = BitVec::new();
/// bits.push_bits(0b101, 3);
/// bits.push_bits(0xF, 4);
/// assert_eq!(bits.len(), 7);
/// assert_eq!(bits.read_bits(0, 3), 0b101);
/// assert_eq!(bits.read_bits(3, 4), 0xF);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty bit vector with room for `bits` bits.
    #[must_use]
    pub fn with_capacity(bits: usize) -> Self {
        BitVec {
            words: Vec::with_capacity(bits.div_ceil(64)),
            len: 0,
        }
    }

    /// Number of bits stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a single bit.
    pub fn push(&mut self, bit: bool) {
        let word = self.len / 64;
        let offset = self.len % 64;
        if word == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1 << (63 - offset);
        }
        self.len += 1;
    }

    /// Appends the low `width` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64` or if `value` has bits set above `width`.
    pub fn push_bits(&mut self, value: u64, width: u32) {
        assert!(width <= 64, "field width {width} exceeds 64");
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "value {value:#x} does not fit in {width} bits"
            );
        }
        for i in (0..width).rev() {
            self.push(value >> i & 1 == 1);
        }
    }

    /// Returns the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[must_use]
    pub fn bit(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] >> (63 - index % 64) & 1 == 1
    }

    /// Reads `width` bits starting at `start`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector or `width > 64`.
    #[must_use]
    pub fn read_bits(&self, start: usize, width: u32) -> u64 {
        assert!(width <= 64, "field width {width} exceeds 64");
        assert!(
            start + width as usize <= self.len,
            "bit range {start}..{} out of range {}",
            start + width as usize,
            self.len
        );
        let mut value = 0u64;
        for i in 0..width as usize {
            value = value << 1 | u64::from(self.bit(start + i));
        }
        value
    }

    /// Flips the bit at `index` in place. Used by fault injectors to model
    /// channel corruption.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn flip(&mut self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        self.words[index / 64] ^= 1 << (63 - index % 64);
    }

    /// Iterates over all bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }

    /// Appends all bits of `other`.
    pub fn extend_from(&mut self, other: &BitVec) {
        for bit in other.iter() {
            self.push(bit);
        }
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        for (i, bit) in self.iter().enumerate() {
            if i > 0 && i % 8 == 0 {
                write!(f, "_")?;
            }
            write!(f, "{}", u8::from(bit))?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bits = BitVec::new();
        for bit in iter {
            bits.push(bit);
        }
        bits
    }
}

impl Extend<bool> for BitVec {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        for bit in iter {
            self.push(bit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_round_trip() {
        let mut bits = BitVec::new();
        bits.push_bits(0xABCD, 16);
        bits.push_bits(0x3, 2);
        bits.push_bits(0x1FFFFF, 21);
        assert_eq!(bits.len(), 39);
        assert_eq!(bits.read_bits(0, 16), 0xABCD);
        assert_eq!(bits.read_bits(16, 2), 0x3);
        assert_eq!(bits.read_bits(18, 21), 0x1FFFFF);
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut bits = BitVec::new();
        bits.push(true);
        bits.push(false);
        bits.push(true);
        assert_eq!(bits.read_bits(0, 3), 0b101);
    }

    #[test]
    fn crosses_word_boundaries() {
        let mut bits = BitVec::new();
        for _ in 0..10 {
            bits.push_bits(0xDEAD_BEEF, 32);
        }
        assert_eq!(bits.len(), 320);
        for i in 0..10 {
            assert_eq!(bits.read_bits(i * 32, 32), 0xDEAD_BEEF);
        }
    }

    #[test]
    fn flip_inverts_one_bit() {
        let mut bits = BitVec::new();
        bits.push_bits(0, 8);
        bits.flip(3);
        assert_eq!(bits.read_bits(0, 8), 0b0001_0000);
        bits.flip(3);
        assert_eq!(bits.read_bits(0, 8), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn push_bits_validates_value_width() {
        let mut bits = BitVec::new();
        bits.push_bits(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_bits_checks_bounds() {
        let bits = BitVec::new();
        let _ = bits.read_bits(0, 1);
    }

    #[test]
    fn from_iterator_collects() {
        let bits: BitVec = [true, false, true, true].into_iter().collect();
        assert_eq!(bits.len(), 4);
        assert_eq!(bits.read_bits(0, 4), 0b1011);
    }

    #[test]
    fn extend_from_concatenates() {
        let mut a = BitVec::new();
        a.push_bits(0b11, 2);
        let mut b = BitVec::new();
        b.push_bits(0b01, 2);
        a.extend_from(&b);
        assert_eq!(a.read_bits(0, 4), 0b1101);
    }

    #[test]
    fn debug_is_nonempty_for_empty_vec() {
        let bits = BitVec::new();
        assert!(!format!("{bits:?}").is_empty());
    }

    #[test]
    fn full_64_bit_field() {
        let mut bits = BitVec::new();
        bits.push_bits(u64::MAX, 64);
        assert_eq!(bits.read_bits(0, 64), u64::MAX);
    }
}
