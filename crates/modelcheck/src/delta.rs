//! Delta-encoded visited-set storage: states stored as sparse xor-deltas
//! against their BFS parent.
//!
//! A model-checking step changes very little of a packed state — in the
//! cluster model, one controller lane and maybe the shared word out of
//! nine. Storing every visited state at full width (72 bytes for
//! `CompactState`) therefore wastes most of the arena on bytes identical
//! to the parent's. A [`DeltaArena`] stores, per state, only the words
//! that differ from its BFS parent (`delta = child ^ parent`, a bitmask
//! of changed word positions plus the xor'd words), and reconstructs the
//! full encoding on demand by replaying deltas down from the nearest
//! **keyframe** ancestor.
//!
//! Keyframes bound reconstruction cost: every [`KEY_INTERVAL`]-th state
//! along any parent chain (and every root) is stored at full width, so
//! reconstruction walks at most `KEY_INTERVAL - 1` parent links, each
//! applying a sparse xor. Lookups hit this path once per index tag
//! match — i.e. essentially once per *duplicate* successor — which
//! trades a short xor replay for a 3–4× smaller visited set on the
//! paper's models.
//!
//! The arena implements the same [`Visited`] interface as the plain
//! [`crate::StateArena`], so both explorers drive it through the exact
//! same code path: verdicts, ids, parents and traces are bit-identical
//! between the two storage schemes — footprint is the only difference.

use crate::index::VisitedIndex;
use crate::intern::{Visited, NO_PARENT};
use std::hash::Hash;
use std::marker::PhantomData;

/// Upper bound on words per encoded state a [`DeltaArena`] supports
/// (reconstruction buffers live on the stack; the changed-word bitmask
/// is a `u16`).
pub const MAX_WORDS: usize = 16;

/// Distance between full-width keyframes along a parent chain: state
/// reconstruction replays at most `KEY_INTERVAL - 1` sparse deltas.
pub const KEY_INTERVAL: u8 = 8;

/// An encoding that exposes itself as a fixed number of `u64` words, the
/// substrate [`DeltaArena`] xor-deltas operate on.
///
/// Contract: `from_words` inverts `write_words` (`from_words(w) == e`
/// whenever `e.write_words(w)`), and equal values write equal words —
/// word equality must coincide with `Eq` on the type.
pub trait WordEncoded: Clone + Eq + Hash {
    /// Number of `u64` words in the encoding (at most [`MAX_WORDS`]).
    const WORDS: usize;

    /// Writes the encoding into `out` (`out.len() == Self::WORDS`).
    fn write_words(&self, out: &mut [u64]);

    /// Rebuilds the value from `words` (`words.len() == Self::WORDS`).
    fn from_words(words: &[u64]) -> Self;
}

impl WordEncoded for u64 {
    const WORDS: usize = 1;

    #[inline]
    fn write_words(&self, out: &mut [u64]) {
        out[0] = *self;
    }

    #[inline]
    fn from_words(words: &[u64]) -> Self {
        words[0]
    }
}

/// Per-state storage record: where its payload words start, which word
/// positions they cover (deltas), and how far the nearest keyframe
/// ancestor is.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Start of this state's words in the shared payload vector.
    payload: u32,
    /// Bitmask of changed word positions (deltas); 0 for keyframes.
    mask: u16,
    /// Parent-chain distance to the nearest keyframe; 0 marks a keyframe
    /// (payload holds all `E::WORDS` words verbatim).
    key_dist: u8,
}

/// A delta-encoding visited set: full-width keyframes plus sparse
/// xor-deltas against BFS parents, behind the same [`Visited`] interface
/// as [`crate::StateArena`].
pub struct DeltaArena<E> {
    slots: Vec<Slot>,
    parents: Vec<u32>,
    payload: Vec<u64>,
    index: VisitedIndex,
    /// Memo of the last parent reconstructed on the insert path:
    /// successive successors of one state share a parent, so the replay
    /// runs once per expanded state instead of once per insert.
    memo_id: u32,
    memo_words: [u64; MAX_WORDS],
    _encoding: PhantomData<fn() -> E>,
}

impl<E: WordEncoded> DeltaArena<E> {
    /// An empty arena.
    ///
    /// # Panics
    ///
    /// Panics if `E::WORDS` is zero or exceeds [`MAX_WORDS`].
    #[must_use]
    pub fn new() -> Self {
        assert!(
            E::WORDS >= 1 && E::WORDS <= MAX_WORDS,
            "DeltaArena supports 1..={MAX_WORDS} words per state, got {}",
            E::WORDS
        );
        DeltaArena {
            slots: Vec::new(),
            parents: Vec::new(),
            payload: Vec::new(),
            index: VisitedIndex::default(),
            memo_id: NO_PARENT,
            memo_words: [0; MAX_WORDS],
            _encoding: PhantomData,
        }
    }

    /// Number of interned states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The BFS parent recorded for `id` ([`NO_PARENT`] for roots).
    #[must_use]
    pub fn parent(&self, id: u32) -> u32 {
        self.parents[id as usize]
    }

    /// Reconstructs the full words of state `id` into `out`: copy the
    /// nearest keyframe ancestor, then replay the (at most
    /// `KEY_INTERVAL - 1`) deltas down the chain.
    fn words_of(&self, id: u32, out: &mut [u64; MAX_WORDS]) {
        let mut chain = [0u32; KEY_INTERVAL as usize];
        let mut chain_len = 0usize;
        let mut cur = id;
        while self.slots[cur as usize].key_dist != 0 {
            chain[chain_len] = cur;
            chain_len += 1;
            cur = self.parents[cur as usize];
        }
        let key = self.slots[cur as usize];
        let start = key.payload as usize;
        out[..E::WORDS].copy_from_slice(&self.payload[start..start + E::WORDS]);
        for &delta_id in chain[..chain_len].iter().rev() {
            let slot = self.slots[delta_id as usize];
            let mut bits = slot.mask;
            let mut at = slot.payload as usize;
            while bits != 0 {
                out[bits.trailing_zeros() as usize] ^= self.payload[at];
                at += 1;
                bits &= bits - 1;
            }
        }
    }

    /// Whether state `id` reconstructs to exactly `probe[..E::WORDS]`.
    fn matches(&self, id: u32, probe: &[u64; MAX_WORDS]) -> bool {
        let mut words = [0u64; MAX_WORDS];
        self.words_of(id, &mut words);
        words[..E::WORDS] == probe[..E::WORDS]
    }

    /// Materializes the encoded state stored at `id`.
    #[must_use]
    pub fn decode(&self, id: u32) -> E {
        let mut words = [0u64; MAX_WORDS];
        self.words_of(id, &mut words);
        E::from_words(&words[..E::WORDS])
    }

    /// Looks up an encoded state by its precomputed Fx hash without
    /// inserting (see [`crate::StateArena::lookup_hashed`]).
    #[must_use]
    pub fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        let mut probe = [0u64; MAX_WORDS];
        encoded.write_words(&mut probe[..E::WORDS]);
        self.index.find(hash, |id| self.matches(id, &probe))
    }

    /// Interns an encoded state the caller has just confirmed absent via
    /// [`Self::lookup_hashed`] with the same `hash`.
    ///
    /// Roots and every `KEY_INTERVAL`-th chain member are stored as
    /// full-width keyframes; everything else as a sparse xor-delta
    /// against its parent (a delta touching every word is promoted to a
    /// keyframe — same size, shorter replay chains below it).
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds `u32::MAX` states (ids are
    /// `u32`, and [`NO_PARENT`] is reserved) or its payload outgrows
    /// `u32` word offsets.
    pub fn insert_new_hashed(&mut self, hash: u64, encoded: &E, parent: u32) -> u32 {
        let start = u32::try_from(self.payload.len()).expect("payload exceeds u32 words");
        let next_id = self.index.insert(hash, self.slots.len());

        let mut words = [0u64; MAX_WORDS];
        encoded.write_words(&mut words[..E::WORDS]);
        let key_dist = if parent == NO_PARENT {
            0
        } else {
            let up = self.slots[parent as usize].key_dist + 1;
            if up >= KEY_INTERVAL {
                0
            } else {
                up
            }
        };

        if key_dist == 0 {
            self.payload.extend_from_slice(&words[..E::WORDS]);
            self.slots.push(Slot {
                payload: start,
                mask: 0,
                key_dist: 0,
            });
        } else {
            if self.memo_id != parent {
                let mut buf = [0u64; MAX_WORDS];
                self.words_of(parent, &mut buf);
                self.memo_words = buf;
                self.memo_id = parent;
            }
            let mut mask: u16 = 0;
            for (w, &word) in words.iter().enumerate().take(E::WORDS) {
                let delta = word ^ self.memo_words[w];
                if delta != 0 {
                    mask |= 1 << w;
                    self.payload.push(delta);
                }
            }
            if mask.count_ones() as usize == E::WORDS {
                // Full-width delta: keyframe it instead.
                self.payload.truncate(start as usize);
                self.payload.extend_from_slice(&words[..E::WORDS]);
                self.slots.push(Slot {
                    payload: start,
                    mask: 0,
                    key_dist: 0,
                });
            } else {
                self.slots.push(Slot {
                    payload: start,
                    mask,
                    key_dist,
                });
            }
        }
        self.parents.push(parent);
        next_id
    }

    /// Approximate resident bytes of the visited set: payload words,
    /// per-state slots and parents, and the hash index.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let payload_bytes = self.payload.capacity() * std::mem::size_of::<u64>();
        let slot_bytes = self.slots.capacity() * std::mem::size_of::<Slot>();
        let parent_bytes = self.parents.capacity() * std::mem::size_of::<u32>();
        (payload_bytes + slot_bytes + parent_bytes + self.index.approx_bytes()) as u64
    }
}

impl<E: WordEncoded> Visited<E> for DeltaArena<E> {
    fn len(&self) -> usize {
        DeltaArena::len(self)
    }

    fn parent(&self, id: u32) -> u32 {
        DeltaArena::parent(self, id)
    }

    fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        DeltaArena::lookup_hashed(self, hash, encoded)
    }

    fn insert_new_hashed(&mut self, hash: u64, encoded: E, parent: u32) -> u32 {
        DeltaArena::insert_new_hashed(self, hash, &encoded, parent)
    }

    fn with_encoded<R>(&self, id: u32, f: impl FnOnce(&E) -> R) -> R {
        f(&self.decode(id))
    }

    fn approx_bytes(&self) -> u64 {
        DeltaArena::approx_bytes(self)
    }
}

impl<E: WordEncoded> Default for DeltaArena<E> {
    fn default() -> Self {
        DeltaArena::new()
    }
}

impl<E> std::fmt::Debug for DeltaArena<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeltaArena")
            .field("states", &self.slots.len())
            .field("payload_words", &self.payload.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::fx_hash;
    use crate::intern::StateArena;

    /// A 4-word encoding for tests.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Quad([u64; 4]);

    impl WordEncoded for Quad {
        const WORDS: usize = 4;
        fn write_words(&self, out: &mut [u64]) {
            out.copy_from_slice(&self.0);
        }
        fn from_words(words: &[u64]) -> Self {
            let mut q = [0u64; 4];
            q.copy_from_slice(words);
            Quad(q)
        }
    }

    fn insert(arena: &mut DeltaArena<Quad>, q: Quad, parent: u32) -> u32 {
        let hash = fx_hash(&q);
        assert_eq!(arena.lookup_hashed(hash, &q), None, "test inserts are new");
        arena.insert_new_hashed(hash, &q, parent)
    }

    #[test]
    fn states_round_trip_through_delta_chains() {
        let mut arena: DeltaArena<Quad> = DeltaArena::new();
        // A chain three keyframe-intervals long: every state must
        // reconstruct exactly, wherever it sits relative to a keyframe.
        let mut states = Vec::new();
        let mut parent = NO_PARENT;
        for i in 0..(3 * KEY_INTERVAL as u64) {
            let q = Quad([i, i.wrapping_mul(0x9e37), i >> 1, 0xabcd ^ i]);
            parent = insert(&mut arena, q, parent);
            states.push(q);
        }
        for (id, &q) in states.iter().enumerate() {
            assert_eq!(arena.decode(id as u32), q, "state {id}");
        }
    }

    #[test]
    fn lookup_distinguishes_all_states() {
        let mut arena: DeltaArena<Quad> = DeltaArena::new();
        let mut parent = NO_PARENT;
        let states: Vec<Quad> = (0..50u64).map(|i| Quad([i, 0, i * i, 3])).collect();
        for &q in &states {
            parent = insert(&mut arena, q, parent);
        }
        for (id, q) in states.iter().enumerate() {
            assert_eq!(arena.lookup_hashed(fx_hash(q), q), Some(id as u32));
        }
        let absent = Quad([1, 2, 3, 4]);
        assert_eq!(arena.lookup_hashed(fx_hash(&absent), &absent), None);
    }

    #[test]
    fn branching_parents_reconstruct_independently() {
        // One root, many children, grandchildren under each child: the
        // insert-path memo must not leak across parents.
        let mut arena: DeltaArena<Quad> = DeltaArena::new();
        let root = Quad([7, 7, 7, 7]);
        let root_id = insert(&mut arena, root, NO_PARENT);
        let mut expect = vec![(root_id, root)];
        for c in 0..6u64 {
            let child = Quad([7, c + 100, 7, 7]);
            let cid = insert(&mut arena, child, root_id);
            expect.push((cid, child));
            for g in 0..3u64 {
                let grand = Quad([g, c + 100, 7, g ^ c]);
                let gid = insert(&mut arena, grand, cid);
                expect.push((gid, grand));
            }
        }
        for (id, q) in expect {
            assert_eq!(arena.decode(id), q, "state {id}");
        }
    }

    #[test]
    fn delta_storage_is_smaller_than_full_width() {
        // A long chain where each step changes one word: the delta arena
        // must store far less payload than states × words.
        let mut arena: DeltaArena<Quad> = DeltaArena::new();
        let mut parent = NO_PARENT;
        let n = 1024u64;
        for i in 0..n {
            let q = Quad([i, 1, 2, 3]);
            parent = insert(&mut arena, q, parent);
        }
        let full_width = n * 4 * 8;
        assert!(
            (arena.payload.len() * 8) as u64 * 2 < full_width,
            "payload {} words is not < half of full width {} bytes",
            arena.payload.len(),
            full_width
        );
    }

    /// Force every key into one hash: equal encodings must still dedup,
    /// confirmed by delta reconstruction, and distinct ones must all be
    /// retained.
    #[test]
    fn hash_collisions_are_resolved_by_equality() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        struct Collide(Quad);
        impl std::hash::Hash for Collide {
            fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
                0u64.hash(state);
            }
        }
        impl WordEncoded for Collide {
            const WORDS: usize = 4;
            fn write_words(&self, out: &mut [u64]) {
                self.0.write_words(out);
            }
            fn from_words(words: &[u64]) -> Self {
                Collide(Quad::from_words(words))
            }
        }
        // One parent chain past a keyframe interval, so candidates are
        // told apart by replaying deltas as well as by keyframes.
        let state = |i: u64| Collide(Quad([i, 1, 2, i / 3]));
        let mut arena: DeltaArena<Collide> = DeltaArena::new();
        let mut parent = NO_PARENT;
        for i in 0..20u64 {
            let hash = fx_hash(&state(i));
            assert_eq!(arena.lookup_hashed(hash, &state(i)), None);
            parent = arena.insert_new_hashed(hash, &state(i), parent);
            assert_eq!(parent, i as u32);
        }
        for i in 0..20u64 {
            assert_eq!(
                arena.lookup_hashed(fx_hash(&state(i)), &state(i)),
                Some(i as u32)
            );
        }
        assert_eq!(arena.len(), 20);
    }

    /// The delta arena and the plain arena must agree on every id for
    /// the same insert sequence — they are interchangeable storage for
    /// the same exploration.
    #[test]
    fn agrees_with_plain_arena_on_ids() {
        let mut delta: DeltaArena<u64> = DeltaArena::new();
        let mut plain: StateArena<u64> = StateArena::new();
        let seq: Vec<u64> = (0..200).map(|i| (i * 37) % 120).collect();
        let mut last: u32 = NO_PARENT;
        for &v in &seq {
            let hash = fx_hash(&v);
            let d = match delta.lookup_hashed(hash, &v) {
                Some(id) => (id, false),
                None => (delta.insert_new_hashed(hash, &v, last), true),
            };
            let p = plain.intern(v, last);
            assert_eq!(d, p, "value {v}");
            last = d.0;
        }
        assert_eq!(delta.len(), plain.len());
        for id in 0..delta.len() as u32 {
            assert_eq!(delta.decode(id), *plain.get(id));
            assert_eq!(
                <DeltaArena<u64>>::parent(&delta, id),
                StateArena::parent(&plain, id)
            );
        }
    }

    #[test]
    #[should_panic(expected = "words per state")]
    fn oversized_encodings_are_rejected() {
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        struct Big;
        impl WordEncoded for Big {
            const WORDS: usize = MAX_WORDS + 1;
            fn write_words(&self, _: &mut [u64]) {}
            fn from_words(_: &[u64]) -> Self {
                Big
            }
        }
        let _ = DeltaArena::<Big>::new();
    }
}
