//! The compact hash index both visited-set arenas share.
//!
//! An open-addressing table of one `u64` per slot: the top 32 bits of a
//! state's 64-bit Fx hash as a *tag*, then the state's `u32` id. The
//! all-ones word marks an empty slot, so id `u32::MAX` ([`NO_PARENT`])
//! is never stored. A slot's home is the tag's top bits, which lets
//! doubling re-place every entry from its tag alone: no full hash is
//! kept. Collisions probe linearly, and the table doubles before its
//! load passes 3/4.
//!
//! A tag match is only a candidate: the arena confirms it with its own
//! equality check (comparing the stored state, or the stored words), so
//! states whose hashes share all 32 tag bits — or all 64 — are still
//! told apart exactly.

use crate::intern::NO_PARENT;

/// The empty-slot word: tag and id all ones.
const EMPTY: u64 = u64::MAX;

/// log2 of the slot count the first insert allocates.
const MIN_BITS: u32 = 4;

/// log2 of the largest slot count: a home is a prefix of the 32-bit tag.
/// At 2³² slots one stays empty, since ids stop below `u32::MAX`.
const MAX_BITS: u32 = 32;

/// Hash → state-id index with 8 bytes per slot (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct VisitedIndex {
    slots: Vec<u64>,
    len: usize,
}

impl VisitedIndex {
    /// An empty index whose first `entries` inserts never grow it.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let slots = (entries * 4)
            .div_ceil(3)
            .next_power_of_two()
            .max(1 << MIN_BITS);
        VisitedIndex {
            slots: vec![EMPTY; slots],
            len: 0,
        }
    }

    /// The stored id whose tag matches `hash` and for which `is_match`
    /// holds, probing from the tag's home to the first empty slot.
    pub(crate) fn find(&self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(hash);
        loop {
            let word = self.slots[at];
            if word == EMPTY {
                return None;
            }
            // Same tag: the arena decides whether it is the same state.
            if (word ^ hash) >> 32 == 0 && is_match(word as u32) {
                return Some(word as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores the state at arena position `position` under `hash` and
    /// returns its id — the one position → id conversion both arenas
    /// use. The caller has confirmed absence with [`Self::find`].
    ///
    /// # Panics
    ///
    /// Panics if `position` does not fit a `u32` id below [`NO_PARENT`].
    pub(crate) fn insert(&mut self, hash: u64, position: usize) -> u32 {
        let id = match u32::try_from(position) {
            Ok(id) if id != NO_PARENT => id,
            _ => panic!("visited set exceeds u32 addressing at state {position}"),
        };
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.place((hash & !u64::from(u32::MAX)) | u64::from(id));
        self.len += 1;
        id
    }

    /// Resident bytes of the slot array.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// The home slot of a hash or stored word: its top `log2(slots)` bits.
    fn home(&self, word: u64) -> usize {
        (word >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Writes `word` into the first empty slot at or after its home.
    fn place(&mut self, word: u64) {
        let mask = self.slots.len() - 1;
        let mut at = self.home(word);
        while self.slots[at] != EMPTY {
            at = (at + 1) & mask;
        }
        self.slots[at] = word;
    }

    /// Doubles the slot array and re-places every entry from its tag.
    fn grow(&mut self) {
        let bits = match self.slots.len() {
            0 => MIN_BITS,
            n => n.trailing_zeros() + 1,
        };
        if bits > MAX_BITS {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; 1 << bits]);
        for word in old {
            if word != EMPTY {
                self.place(word);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Find-or-insert of `key` under `hash`, with ids indexing `keys`.
    fn intern(index: &mut VisitedIndex, keys: &mut Vec<u64>, hash: u64, key: u64) -> u32 {
        match index.find(hash, |id| keys[id as usize] == key) {
            Some(id) => id,
            None => {
                keys.push(key);
                index.insert(hash, keys.len() - 1)
            }
        }
    }

    #[test]
    fn growth_keeps_every_id_findable() {
        let mut index = VisitedIndex::default();
        let mut keys = Vec::new();
        let hash = |key: u64| key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for key in 0..1000u64 {
            assert_eq!(intern(&mut index, &mut keys, hash(key), key), key as u32);
        }
        // 16 slots to 2048: seven doublings.
        assert_eq!(index.slots.len(), 2048);
        assert_eq!(index.len, 1000);
        for key in 0..1000u64 {
            let found = index.find(hash(key), |id| keys[id as usize] == key);
            assert_eq!(found, Some(key as u32), "key {key}");
        }
        assert_eq!(index.find(hash(1000), |id| keys[id as usize] == 1000), None);
    }

    #[test]
    fn presized_index_takes_its_capacity_without_growing() {
        for entries in [0, 1, 12, 13, 100, 768, 769] {
            let mut index = VisitedIndex::with_capacity(entries);
            let slots = index.slots.len();
            for position in 0..entries {
                index.insert(
                    (position as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    position,
                );
            }
            assert_eq!(index.slots.len(), slots, "{entries} entries");
        }
        assert_eq!(VisitedIndex::with_capacity(768).slots.len(), 1024);
    }

    #[test]
    fn load_stays_at_most_three_quarters() {
        let mut index = VisitedIndex::default();
        for position in 0..500usize {
            index.insert(
                (position as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                position,
            );
            assert!(index.len * 4 <= index.slots.len() * 3, "at {position}");
        }
    }

    #[test]
    fn shared_tags_are_resolved_by_equality() {
        let mut index = VisitedIndex::default();
        let mut keys = Vec::new();
        // Every hash carries the same all-ones tag, whose home is the
        // last slot (probes wrap around); half of the hashes are also
        // identical in all 64 bits.
        let tag = u64::from(u32::MAX) << 32;
        let hash = |key: u64| tag | ((key % 2) * key);
        for key in 0..100u64 {
            assert_eq!(intern(&mut index, &mut keys, hash(key), key), key as u32);
        }
        for key in 0..100u64 {
            assert_eq!(intern(&mut index, &mut keys, hash(key), key), key as u32);
        }
        assert_eq!(keys.len(), 100);
    }

    #[test]
    #[should_panic(expected = "exceeds u32 addressing")]
    fn storing_id_u32_max_panics() {
        let mut index = VisitedIndex::default();
        let _ = index.insert(7, NO_PARENT as usize);
    }

    proptest! {
        /// The index agrees with a `HashMap<u64, Vec<u32>>` reference on
        /// every find-or-insert of scripts whose keys draw hashes from a
        /// small pool: equal hashes, equal tags with distinct low bits,
        /// and distinct tags sharing a home.
        #[test]
        #[cfg_attr(miri, ignore = "interpreted proptest cases are slow; the unit tests cover the table")]
        fn agrees_with_a_hash_map_reference(
            pool in prop::collection::vec((0..2u64, 0..3u64, 0..3u64), 1..8),
            script in prop::collection::vec(0..200u64, 1..400),
        ) {
            let hash_of = |key: u64| {
                let (home, tag, low) = pool[key as usize % pool.len()];
                (home << 63) | (tag << 32) | low
            };
            let mut index = VisitedIndex::default();
            let mut keys: Vec<u64> = Vec::new();
            let mut reference: HashMap<u64, Vec<u32>> = HashMap::new();
            for key in script {
                let hash = hash_of(key);
                let expected = reference
                    .get(&hash)
                    .and_then(|ids| ids.iter().copied().find(|&id| keys[id as usize] == key));
                let found = index.find(hash, |id| keys[id as usize] == key);
                prop_assert_eq!(found, expected, "key {}", key);
                if found.is_none() {
                    keys.push(key);
                    let id = index.insert(hash, keys.len() - 1);
                    reference.entry(hash).or_default().push(id);
                }
            }
            for (id, &key) in keys.iter().enumerate() {
                prop_assert_eq!(index.find(hash_of(key), |i| keys[i as usize] == key), Some(id as u32));
            }
        }
    }
}
