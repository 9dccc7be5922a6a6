//! The sharded hash index both visited-set arenas share, and the plain
//! table it is made of.
//!
//! A [`Table`] is an open-addressing table of one `u64` per slot: the top
//! 32 bits of a 64-bit key as a *tag*, then a `u32` id. The all-ones word
//! marks an empty slot, so id `u32::MAX` ([`NO_PARENT`]) is never stored.
//! A slot's home is the tag's top bits, which lets doubling re-place every
//! entry from its tag alone: no full key is kept. Collisions probe
//! linearly, and the table doubles before its load passes 3/4. The
//! explorer's in-chunk proposal filter is one such table, keyed on the
//! state's Fx hash.
//!
//! A [`VisitedIndex`] splits the visited states over [`SHARDS`] tables:
//! the top [`SHARD_BITS`] bits of a state's Fx hash pick its shard, and
//! the shard's table keys on the bits below them (`hash << SHARD_BITS`).
//! Each shard doubles on its own, so a doubling holds one shard's old
//! table beside its new one — a 64th of the index, not the whole of it —
//! and the layer step's merge fills disjoint shards on separate threads
//! ([`VisitedIndex::extend`]).
//!
//! A tag match is only a candidate: the arena confirms it with its own
//! equality check (comparing the stored state, or the stored words), so
//! states whose keys share all 32 tag bits — or all 64 — are still told
//! apart exactly.

use crate::intern::NO_PARENT;
use std::ops::Range;
use std::sync::{Mutex, PoisonError};
use tta_base::map_chunks;

/// log2 of [`SHARDS`]: the hash bits that pick a state's shard.
pub(crate) const SHARD_BITS: u32 = 6;

/// Tables in a [`VisitedIndex`].
pub(crate) const SHARDS: usize = 1 << SHARD_BITS;

/// The empty-slot word: tag and id all ones.
const EMPTY: u64 = u64::MAX;

/// log2 of the slot count the first insert allocates.
const MIN_BITS: u32 = 4;

/// log2 of the largest slot count: a home is a prefix of the 32-bit tag.
/// At 2³² slots one stays empty, since ids stop below `u32::MAX`.
const MAX_BITS: u32 = 32;

/// The id of the state at arena position `position` — the one position →
/// id conversion both arenas and the proposal filter use.
///
/// # Panics
///
/// Panics if `position` does not fit a `u32` id below [`NO_PARENT`].
pub(crate) fn id_of(position: usize) -> u32 {
    match u32::try_from(position) {
        Ok(id) if id != NO_PARENT => id,
        _ => panic!("visited set exceeds u32 addressing at state {position}"),
    }
}

/// The shard of a state's Fx hash: its top [`SHARD_BITS`] bits.
pub(crate) fn shard_of(hash: u64) -> usize {
    (hash >> (64 - SHARD_BITS)) as usize
}

/// The key a state's Fx hash files under in its shard's table: the bits
/// below the shard bits, which spread over the whole table.
pub(crate) fn shard_key(hash: u64) -> u64 {
    hash << SHARD_BITS
}

/// Runs `task` on every group of `group` consecutive shards, on up to
/// `threads` threads of [`map_chunks`]: the outputs in shard order.
pub(crate) fn map_shard_groups<O, F>(group: usize, threads: usize, task: &F) -> Vec<O>
where
    O: Send,
    F: Fn(Range<usize>) -> O + Sync,
{
    map_chunks(&[(); SHARDS], group, threads, &|i, shards: &[()]| {
        task(i * group..i * group + shards.len())
    })
}

/// Key → id table with 8 bytes per slot (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    slots: Vec<u64>,
    len: usize,
}

impl Table {
    /// An empty table whose first `entries` inserts never grow it.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        let slots = (entries * 4)
            .div_ceil(3)
            .next_power_of_two()
            .max(1 << MIN_BITS);
        Table {
            slots: vec![EMPTY; slots],
            len: 0,
        }
    }

    /// The stored id whose tag matches `key` and for which `is_match`
    /// holds, probing from the tag's home to the first empty slot.
    pub(crate) fn find(&self, key: u64, mut is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(key);
        loop {
            let word = self.slots[at];
            if word == EMPTY {
                return None;
            }
            // Same tag: the caller decides whether it is the same state.
            if (word ^ key) >> 32 == 0 && is_match(word as u32) {
                return Some(word as u32);
            }
            at = (at + 1) & mask;
        }
    }

    /// Stores `id` (from [`id_of`]) under `key`. The caller has confirmed
    /// absence with [`Self::find`].
    pub(crate) fn insert(&mut self, key: u64, id: u32) {
        debug_assert_ne!(id, NO_PARENT, "ids come from id_of");
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        self.place((key & !u64::from(u32::MAX)) | u64::from(id));
        self.len += 1;
    }

    /// Resident bytes of the slot array.
    fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u64>()
    }

    /// The home slot of a key or stored word: its top `log2(slots)` bits.
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

/// Hash → state-id index of [`SHARDS`] tables, each growing on its own
/// (see the module docs). The arenas hand it to the layer step's merge
/// through [`crate::Visited::index_mut`].
#[derive(Debug, Clone)]
pub struct VisitedIndex {
    shards: [Table; SHARDS],
}

impl VisitedIndex {
    /// The stored id whose hash tag matches and for which `is_match`
    /// holds.
    pub(crate) fn find(&self, hash: u64, is_match: impl FnMut(u32) -> bool) -> Option<u32> {
        self.shards[shard_of(hash)].find(shard_key(hash), is_match)
    }

    /// Stores `id` under `hash`. The caller has confirmed absence with
    /// [`Self::find`].
    pub(crate) fn insert(&mut self, hash: u64, id: u32) {
        self.shards[shard_of(hash)].insert(shard_key(hash), id);
    }

    /// Fills every shard `s` through `fill(s, table)`, `group` shards
    /// per task on up to `threads` threads. `fill` must insert into
    /// `table` only entries of shard `s`, keyed by [`shard_key`].
    pub(crate) fn extend<F>(&mut self, group: usize, threads: usize, fill: &F)
    where
        F: Fn(usize, &mut Table) + Sync,
    {
        // Each task locks only its own shards, so no lock is ever
        // contended: the mutexes lend the tables out to one thread each.
        let cells: [Mutex<Table>; SHARDS] =
            std::array::from_fn(|s| Mutex::new(std::mem::take(&mut self.shards[s])));
        map_shard_groups(group, threads, &|shards: Range<usize>| {
            for s in shards {
                fill(
                    s,
                    &mut cells[s].lock().unwrap_or_else(PoisonError::into_inner),
                );
            }
        });
        for (table, cell) in self.shards.iter_mut().zip(cells) {
            *table = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Resident bytes: every shard's slot array.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.shards.iter().map(Table::approx_bytes).sum()
    }
}

impl Default for VisitedIndex {
    fn default() -> Self {
        VisitedIndex {
            shards: std::array::from_fn(|_| Table::default()),
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
                let id = id_of(keys.len() - 1);
                index.insert(hash, id);
                id
            }
        }
    }

    /// A well-spread hash of a test key.
    fn spread(key: u64) -> u64 {
        key.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// The hash of test key `low` filed in shard `shard`.
    fn in_shard(shard: usize, low: u64) -> u64 {
        ((shard as u64) << (64 - SHARD_BITS)) | (spread(low) >> SHARD_BITS)
    }

    #[test]
    fn growth_keeps_every_id_findable() {
        let mut table = Table::default();
        let mut keys: Vec<u64> = Vec::new();
        for key in 0..1000u64 {
            assert_eq!(table.find(spread(key), |id| keys[id as usize] == key), None);
            table.insert(spread(key), id_of(keys.len()));
            keys.push(key);
        }
        // 16 slots to 2048: seven doublings.
        assert_eq!(table.slots.len(), 2048);
        assert_eq!(table.len, 1000);
        for key in 0..1000u64 {
            let found = table.find(spread(key), |id| keys[id as usize] == key);
            assert_eq!(found, Some(key as u32), "key {key}");
        }
        assert_eq!(
            table.find(spread(1000), |id| keys[id as usize] == 1000),
            None
        );
    }

    #[test]
    fn presized_table_takes_its_capacity_without_growing() {
        for entries in [0, 1, 12, 13, 100, 768, 769] {
            let mut table = Table::with_capacity(entries);
            let slots = table.slots.len();
            for position in 0..entries {
                table.insert(spread(position as u64), id_of(position));
            }
            assert_eq!(table.slots.len(), slots, "{entries} entries");
        }
        assert_eq!(Table::with_capacity(768).slots.len(), 1024);
    }

    #[test]
    fn load_stays_at_most_three_quarters() {
        let mut index = VisitedIndex::default();
        for position in 0..5000usize {
            let hash = spread(position as u64);
            index.insert(hash, id_of(position));
            let table = &index.shards[shard_of(hash)];
            assert!(table.len * 4 <= table.slots.len() * 3, "at {position}");
        }
    }

    #[test]
    fn shared_tags_are_resolved_by_equality() {
        let mut index = VisitedIndex::default();
        let mut keys = Vec::new();
        // Every hash lands in the last shard with the same all-ones
        // tag, whose home is the last slot (probes wrap around); half of
        // the hashes are also identical in all 64 bits.
        let hash = |key: u64| u64::MAX << 26 | ((key % 2) * key);
        for key in 0..100u64 {
            assert_eq!(intern(&mut index, &mut keys, hash(key), key), key as u32);
        }
        for key in 0..100u64 {
            assert_eq!(intern(&mut index, &mut keys, hash(key), key), key as u32);
        }
        assert_eq!(keys.len(), 100);
        assert_eq!(index.shards[SHARDS - 1].len, 100);
    }

    /// Hashes that differ only in their shard bits share a key inside
    /// their shard tables: they are still apart, and a lookup never
    /// finds one shard's entry through another's.
    #[test]
    fn shards_are_isolated() {
        let mut index = VisitedIndex::default();
        let low = 12_345;
        for shard in 0..SHARDS {
            index.insert(in_shard(shard, low), shard as u32);
        }
        for shard in 0..SHARDS {
            // Every stored id matches: only the shard decides.
            assert_eq!(
                index.find(in_shard(shard, low), |_| true),
                Some(shard as u32)
            );
            assert_eq!(index.shards[shard].len, 1);
        }
        assert_eq!(index.find(in_shard(3, low + 1), |_| true), None);
    }

    /// Filling one shard doubles its table again and again; every other
    /// shard keeps its one slot array, and every id stays findable.
    #[test]
    fn one_shard_grows_while_the_others_keep_their_ids() {
        let mut index = VisitedIndex::default();
        let mut keys: Vec<(usize, u64)> = Vec::new();
        for shard in 0..SHARDS {
            keys.push((shard, 0));
            index.insert(in_shard(shard, 0), id_of(keys.len() - 1));
        }
        let others = |index: &VisitedIndex| {
            (0..SHARDS)
                .filter(|&s| s != 9)
                .map(|s| index.shards[s].slots.as_ptr())
                .collect::<Vec<_>>()
        };
        let before = others(&index);
        for low in 1..2000u64 {
            keys.push((9, low));
            index.insert(in_shard(9, low), id_of(keys.len() - 1));
        }
        assert_eq!(index.shards[9].slots.len(), 4096);
        assert_eq!(others(&index), before, "only shard 9 reallocated");
        for (id, &(shard, low)) in keys.iter().enumerate() {
            let found = index.find(in_shard(shard, low), |i| keys[i as usize] == (shard, low));
            assert_eq!(found, Some(id as u32), "shard {shard}, key {low}");
        }
        let bytes = index.approx_bytes();
        assert_eq!(bytes, (63 * 16 + 4096) * 8, "the shard capacities, summed");
    }

    /// `extend` fills each shard with its own entries at any grouping
    /// and thread count, and agrees with inserting one at a time.
    #[test]
    fn extend_matches_one_insert_at_a_time() {
        let hashes: Vec<u64> = (0..1000u64).map(spread).collect();
        let mut one_by_one = VisitedIndex::default();
        for (id, &hash) in hashes.iter().enumerate() {
            one_by_one.insert(hash, id_of(id));
        }
        for (group, threads) in [(SHARDS, 1), (4, 2), (1, 4)] {
            let mut index = VisitedIndex::default();
            index.extend(group, threads, &|s, table: &mut Table| {
                for (id, &hash) in hashes.iter().enumerate() {
                    if shard_of(hash) == s {
                        table.insert(shard_key(hash), id_of(id));
                    }
                }
            });
            for (id, &hash) in hashes.iter().enumerate() {
                assert_eq!(index.find(hash, |i| i == id as u32), Some(id as u32));
            }
            for s in 0..SHARDS {
                assert_eq!(
                    index.shards[s].slots, one_by_one.shards[s].slots,
                    "shard {s}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds u32 addressing")]
    fn position_u32_max_has_no_id() {
        let _ = id_of(NO_PARENT as usize);
    }

    proptest! {
        /// The index agrees with a `HashMap<u64, Vec<u32>>` reference on
        /// every find-or-insert of scripts whose keys draw hashes from a
        /// small pool: equal hashes, equal tags with distinct low bits,
        /// distinct tags sharing a home, and equal keys in two shards.
        #[test]
        #[cfg_attr(miri, ignore = "interpreted proptest cases are slow; the unit tests cover the table")]
        fn agrees_with_a_hash_map_reference(
            pool in prop::collection::vec((0..2u64, 0..2u64, 0..3u64, 0..3u64), 1..8),
            script in prop::collection::vec(0..200u64, 1..400),
        ) {
            let hash_of = |key: u64| {
                let (shard, home, tag, low) = pool[key as usize % pool.len()];
                (shard << 63) | (home << 57) | (tag << 26) | low
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
                    let id = id_of(keys.len() - 1);
                    index.insert(hash, id);
                    reference.entry(hash).or_default().push(id);
                }
            }
            for (id, &key) in keys.iter().enumerate() {
                prop_assert_eq!(index.find(hash_of(key), |i| keys[i as usize] == key), Some(id as u32));
            }
        }
    }
}
