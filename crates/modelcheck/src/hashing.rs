//! Fast, non-cryptographic hashing for visited-state sets.
//!
//! The default `std` hasher (SipHash) is keyed and DoS-resistant, which a
//! model checker does not need; state deduplication dominates the
//! explorer's runtime, so we use an FxHash-style multiply-xor hasher
//! (the rustc compiler's interning hasher) instead.

use std::hash::Hasher;

/// Multiplicative constant from FxHash (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style streaming hasher: `state = (state rotl 5 ^ word) * SEED`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Hashes one value with [`FxHasher`] (the hash both visited-set arenas
/// key on; their index keeps its top 32 bits as a tag).
#[inline]
#[must_use]
pub fn fx_hash<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = FxHasher::default();
    value.hash(&mut hasher);
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, BuildHasherDefault};

    fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&(1u8, 2u16, 3u32)), hash_of(&(1u8, 2u16, 3u32)));
    }

    #[test]
    fn different_values_hash_differently() {
        // Not guaranteed in general, but these must not collide for the
        // hasher to be useful.
        let hashes: Vec<u64> = (0u64..1000).map(|v| hash_of(&v)).collect();
        let unique: std::collections::HashSet<u64> = hashes.iter().copied().collect();
        assert_eq!(unique.len(), 1000);
    }

    #[test]
    fn byte_stream_and_word_writes_differ_only_by_encoding() {
        // Sanity: hashing is deterministic across calls.
        let a = hash_of(&"the same string");
        let b = hash_of(&"the same string");
        assert_eq!(a, b);
    }
}
