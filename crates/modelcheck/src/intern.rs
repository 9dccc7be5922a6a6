//! The arena-interned visited set shared by both explorers.
//!
//! A [`StateArena`] stores each distinct encoded state **exactly once**
//! in a flat vector, with the BFS parent recorded as a `u32` arena
//! index instead of an `Option<State>` clone. Deduplication goes
//! through a compact hash index of 8 bytes per slot (a 32-bit tag of
//! the encoding's Fx hash plus the state id), so the index never
//! duplicates the encoded bytes the arena already owns, and a tag match
//! is confirmed by comparing the stored state. The delta arena
//! ([`crate::delta::DeltaArena`]) shares the same index.
//!
//! Parent indices are opaque to the arena: both explorers store arena
//! ids, and [`NO_PARENT`] marks roots.

use crate::index::VisitedIndex;
use std::hash::Hash;

/// Parent marker for initial states (no predecessor).
pub const NO_PARENT: u32 = u32::MAX;

/// The visited-set interface both explorers drive, implemented by the
/// plain [`StateArena`] and the delta-encoding
/// [`crate::delta::DeltaArena`].
///
/// All methods take a caller-computed Fx hash so the hot loop hashes
/// each encoding exactly once (the hash must be `fx_hash(&encoded)` —
/// see [`crate::hashing::fx_hash`]). `insert_new_hashed` requires the
/// caller to have just confirmed absence via `lookup_hashed` with the
/// same hash; inserting a present state wastes storage and may shadow
/// the original in later lookups.
pub trait Visited<E> {
    /// Number of interned states.
    fn len(&self) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parent index recorded for `id` ([`NO_PARENT`] for roots).
    fn parent(&self, id: u32) -> u32;

    /// Looks up an encoded state by its precomputed hash.
    fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32>;

    /// Interns a state known to be absent, returning its new id.
    fn insert_new_hashed(&mut self, hash: u64, encoded: E, parent: u32) -> u32;

    /// Calls `f` with the encoded state stored at `id` (materializing it
    /// first if the storage is not full-width).
    fn with_encoded<R>(&self, id: u32, f: impl FnOnce(&E) -> R) -> R;

    /// Approximate resident bytes of the visited set.
    fn approx_bytes(&self) -> u64;
}

/// An interning visited set: flat state storage + `u32` parent links.
#[derive(Debug, Clone, Default)]
pub struct StateArena<E> {
    states: Vec<E>,
    parents: Vec<u32>,
    index: VisitedIndex,
}

impl<E: Eq + Hash> StateArena<E> {
    /// An empty arena.
    #[must_use]
    pub fn new() -> Self {
        StateArena {
            states: Vec::new(),
            parents: Vec::new(),
            index: VisitedIndex::default(),
        }
    }

    /// Number of interned states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The encoded state at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by an insert on this arena.
    #[must_use]
    pub fn get(&self, id: u32) -> &E {
        &self.states[id as usize]
    }

    /// The parent index recorded for `id` ([`NO_PARENT`] for roots).
    #[must_use]
    pub fn parent(&self, id: u32) -> u32 {
        self.parents[id as usize]
    }

    /// Every state's parent index, by id.
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.parents
    }

    /// Looks up an encoded state by its caller-precomputed Fx hash, so
    /// hot loops hash each encoding once across dedup and insert.
    #[must_use]
    pub fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        self.index
            .find(hash, |id| self.states[id as usize] == *encoded)
    }

    /// Interns an encoded state the caller has just confirmed absent via
    /// [`Self::lookup_hashed`] with the same `hash`.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds `u32::MAX` states: ids are
    /// `u32`, and [`NO_PARENT`] is reserved.
    pub fn insert_new_hashed(&mut self, hash: u64, encoded: E, parent: u32) -> u32 {
        let id = self.index.insert(hash, self.states.len());
        self.states.push(encoded);
        self.parents.push(parent);
        id
    }

    /// Approximate resident bytes of the visited set: the interned
    /// states themselves, the parent links, and the hash index.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let state_bytes = self.states.capacity() * std::mem::size_of::<E>();
        let parent_bytes = self.parents.capacity() * std::mem::size_of::<u32>();
        (state_bytes + parent_bytes + self.index.approx_bytes()) as u64
    }
}

impl<E: Eq + Hash> Visited<E> for StateArena<E> {
    fn len(&self) -> usize {
        StateArena::len(self)
    }

    fn parent(&self, id: u32) -> u32 {
        StateArena::parent(self, id)
    }

    fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        StateArena::lookup_hashed(self, hash, encoded)
    }

    fn insert_new_hashed(&mut self, hash: u64, encoded: E, parent: u32) -> u32 {
        StateArena::insert_new_hashed(self, hash, encoded, parent)
    }

    fn with_encoded<R>(&self, id: u32, f: impl FnOnce(&E) -> R) -> R {
        f(&self.states[id as usize])
    }

    fn approx_bytes(&self) -> u64 {
        StateArena::approx_bytes(self)
    }
}

#[cfg(test)]
impl<E: Eq + Hash> StateArena<E> {
    /// Interns `encoded` under `parent` unless it is present: its id,
    /// and whether it was new.
    pub(crate) fn intern(&mut self, encoded: E, parent: u32) -> (u32, bool) {
        let hash = crate::hashing::fx_hash(&encoded);
        match self.lookup_hashed(hash, &encoded) {
            Some(id) => (id, false),
            None => (self.insert_new_hashed(hash, encoded, parent), true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::fx_hash;

    #[test]
    fn interning_deduplicates() {
        let mut arena: StateArena<u64> = StateArena::new();
        assert_eq!(arena.intern(10, NO_PARENT), (0, true));
        assert_eq!(arena.intern(20, 0), (1, true));
        assert_eq!(arena.intern(10, 1), (0, false));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.lookup_hashed(fx_hash(&20u64), &20), Some(1));
        assert_eq!(arena.lookup_hashed(fx_hash(&30u64), &30), None);
    }

    #[test]
    fn parents_are_indices_not_clones() {
        let mut arena: StateArena<(u32, u32)> = StateArena::new();
        arena.intern((0, 0), NO_PARENT);
        arena.intern((0, 1), 0);
        arena.intern((1, 1), 1);
        assert_eq!(arena.parent(2), 1);
        assert_eq!(arena.parent(1), 0);
        assert_eq!(arena.parent(0), NO_PARENT);
    }

    /// Force every key into one hash bucket to exercise collision
    /// handling: equal encodings must still dedup, distinct ones must
    /// all be retained.
    #[test]
    fn hash_collisions_are_resolved_by_equality() {
        #[derive(Clone, PartialEq, Eq)]
        struct Collide(u32);
        impl std::hash::Hash for Collide {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                0u64.hash(state);
            }
        }
        let mut arena: StateArena<Collide> = StateArena::new();
        for i in 0..20u32 {
            assert_eq!(arena.intern(Collide(i), NO_PARENT), (i, true));
        }
        for i in 0..20u32 {
            assert_eq!(arena.intern(Collide(i), NO_PARENT), (i, false));
            assert_eq!(
                arena.lookup_hashed(fx_hash(&Collide(i)), &Collide(i)),
                Some(i)
            );
        }
        assert_eq!(arena.len(), 20);
    }

    #[test]
    fn approx_bytes_grows_with_content() {
        let mut arena: StateArena<[u64; 4]> = StateArena::new();
        let empty = arena.approx_bytes();
        for i in 0..1000 {
            arena.intern([i, 0, 0, 0], NO_PARENT);
        }
        assert!(arena.approx_bytes() > empty);
        // The dominant term is the flat state storage, not per-entry
        // heap boxes: well under 3× the raw payload.
        let payload = 1000 * std::mem::size_of::<[u64; 4]>() as u64;
        assert!(arena.approx_bytes() < 3 * payload + 4096);
    }
}
