//! 24-bit cyclic redundancy check.
//!
//! TTP/C protects every frame with a 24-bit CRC, and the C-state may be
//! covered *implicitly* by mixing it into the CRC computation without
//! transmitting it (N-frames) — receivers with a different C-state then
//! see a CRC mismatch. That implicit scheme is why a central guardian that
//! wants to check C-states must either carry its own C-state or buffer
//! enough of the frame for semantic analysis, which is exactly the
//! authority the paper scrutinizes.

use crate::BitVec;

/// Width of the CRC in bits.
pub const CRC_BITS: u32 = 24;

const POLY: u32 = 0x5D_6DCB; // 24-bit polynomial (AUTOSAR CRC-24 family).
const MASK: u32 = 0x00FF_FFFF;

/// A 24-bit CRC accumulator.
///
/// The accumulator is fed bit-by-bit so it can digest the unpadded bit
/// streams the codecs produce, and it can be seeded with a C-state to model
/// TTP/C's implicit C-state coverage.
///
/// # Example
///
/// ```
/// use tta_types::{BitVec, Crc24};
///
/// let mut payload = BitVec::new();
/// payload.push_bits(0b1010, 4);
///
/// let crc = Crc24::new().digest_bits(&payload).finish();
/// let altered = {
///     let mut p = payload.clone();
///     p.flip(1);
///     Crc24::new().digest_bits(&p).finish()
/// };
/// assert_ne!(crc, altered);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Crc24 {
    state: u32,
}

impl Crc24 {
    /// Creates a fresh accumulator with the TTP/C initial value (all ones).
    #[must_use]
    pub fn new() -> Self {
        Crc24 { state: MASK }
    }

    /// Feeds a single bit.
    #[must_use]
    pub fn digest_bit(mut self, bit: bool) -> Self {
        let top = (self.state >> (CRC_BITS - 1)) & 1 == 1;
        self.state = (self.state << 1) & MASK;
        if top != bit {
            self.state ^= POLY & MASK;
        }
        self
    }

    /// Feeds the low `width` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `width > 64`.
    #[must_use]
    pub fn digest(mut self, value: u64, width: u32) -> Self {
        assert!(width <= 64, "field width {width} exceeds 64");
        for i in (0..width).rev() {
            self = self.digest_bit(value >> i & 1 == 1);
        }
        self
    }

    /// Feeds every bit of a [`BitVec`].
    #[must_use]
    pub fn digest_bits(mut self, bits: &BitVec) -> Self {
        for bit in bits.iter() {
            self = self.digest_bit(bit);
        }
        self
    }

    /// Returns the 24-bit checksum.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state & MASK
    }
}

impl Default for Crc24 {
    fn default() -> Self {
        Crc24::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn crc_of(bits: &BitVec) -> u32 {
        Crc24::new().digest_bits(bits).finish()
    }

    #[test]
    fn checksum_fits_in_24_bits() {
        let mut bits = BitVec::new();
        bits.push_bits(u64::MAX, 64);
        assert!(crc_of(&bits) <= MASK);
    }

    #[test]
    fn empty_input_has_initial_state() {
        assert_eq!(Crc24::new().finish(), MASK);
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut bits = BitVec::new();
        bits.push_bits(0x1234_5678_9ABC, 48);
        let reference = crc_of(&bits);
        for i in 0..bits.len() {
            let mut flipped = bits.clone();
            flipped.flip(i);
            assert_ne!(crc_of(&flipped), reference, "flip at bit {i} undetected");
        }
    }

    #[test]
    fn digest_is_incremental() {
        let a = Crc24::new().digest(0xAB, 8).digest(0xCD, 8).finish();
        let mut bits = BitVec::new();
        bits.push_bits(0xABCD, 16);
        assert_eq!(a, crc_of(&bits));
    }

    #[test]
    fn seeding_models_implicit_cstate() {
        // Two receivers with different C-states disagree on the checksum of
        // the same payload — the mechanism behind implicit C-state frames.
        let mut payload = BitVec::new();
        payload.push_bits(0b1100_1010, 8);
        let with_cstate_a = Crc24::new()
            .digest(0x0101, 16)
            .digest_bits(&payload)
            .finish();
        let with_cstate_b = Crc24::new()
            .digest(0x0102, 16)
            .digest_bits(&payload)
            .finish();
        assert_ne!(with_cstate_a, with_cstate_b);
    }

    #[test]
    fn detects_all_double_bit_errors_in_short_frames() {
        // Exhaustive check on a 28-bit N-frame-sized payload.
        let mut bits = BitVec::new();
        bits.push_bits(0xAB_CDEF, 28);
        let reference = crc_of(&bits);
        for i in 0..bits.len() {
            for j in (i + 1)..bits.len() {
                let mut flipped = bits.clone();
                flipped.flip(i);
                flipped.flip(j);
                assert_ne!(
                    crc_of(&flipped),
                    reference,
                    "double flip {i},{j} undetected"
                );
            }
        }
    }
}
