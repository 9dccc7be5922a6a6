//! A fixed-length bitset over state ids: one bit per state where the
//! engine used to keep a `bool`, for predicate labels and search
//! restrictions that live as long as a check.

/// A set of state ids below a fixed length, one bit each.
#[derive(Debug, Clone)]
pub(crate) struct Bits {
    words: Vec<u64>,
}

impl Bits {
    /// The empty set over ids `0..len`.
    pub(crate) fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// The ids in `0..len` that `set` does not contain.
    pub(crate) fn complement(set: &Bits, len: usize) -> Self {
        let mut words: Vec<u64> = set.words.iter().map(|w| !w).collect();
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last &= (1 << (len % 64)) - 1;
            }
        }
        Bits { words }
    }

    /// Whether `id` is in the set.
    #[inline]
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words[id as usize / 64] >> (id % 64) & 1 != 0
    }

    /// Adds `id`; returns whether it was absent.
    #[inline]
    pub(crate) fn insert(&mut self, id: u32) -> bool {
        let word = &mut self.words[id as usize / 64];
        let bit = 1 << (id % 64);
        let absent = *word & bit == 0;
        *word |= bit;
        absent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_complement() {
        let mut set = Bits::new(70);
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.insert(69));
        assert!(set.contains(3) && set.contains(69) && !set.contains(4));
        let rest = Bits::complement(&set, 70);
        let members: Vec<u32> = (0..70).filter(|&v| rest.contains(v)).collect();
        assert_eq!(members.len(), 68);
        assert!(!rest.contains(3) && !rest.contains(69) && rest.contains(68));
        // Bits past the length stay clear.
        assert_eq!(rest.words[1] >> 6, 0);
    }
}
