//! The flat word arena: visited-set storage for encodings made of `u64`
//! words, keeping only each state's live words.
//!
//! A [`WordArena`] stores every state as one row of `width` words in a
//! single `Vec<u64>`, where `width` is the longest *live prefix* — the
//! words up to the last non-zero one — of any state inserted so far.
//! Every stored state is zero past `width`, so those words are not
//! stored: a 4-node cluster state packs into nine words
//! ([`WordEncoded::WORDS`]) but lives in its first two or three. When an
//! insert's live prefix outgrows `width`, the rows are re-laid out at the
//! new width first; the width only grows, so that happens at most
//! `E::WORDS` times in an arena's life (on the cluster model, in the
//! first BFS layers).
//!
//! Nothing here relies on a codec's promise about which words are live.
//! A probe with a non-zero word at or past `width` cannot be stored, so a
//! lookup rejects it without touching the index; any other probe is
//! confirmed against a tag match by comparing its first `width` words
//! with the stored row. Decoding copies the row and zero-fills the rest.
//!
//! The arena implements the same [`Visited`] interface as the plain
//! [`crate::StateArena`] and shares its index, so the explorer drives
//! both through one code path: ids, parents and traces are identical,
//! and footprint is the only difference. The index is sharded
//! (`index.rs`): it grows one 64th at a time, so a doubling never
//! holds the whole old table beside the new one, and the layer step's
//! merge appends a layer's rows in layer order, then fills the shards in
//! parallel.

use crate::index::{id_of, VisitedIndex};
use crate::intern::Visited;
use std::hash::Hash;
use std::marker::PhantomData;

/// Upper bound on words per encoded state a [`WordArena`] supports
/// (probes and decodes go through stack buffers of this size).
pub const MAX_WORDS: usize = 16;

/// An encoding that exposes itself as a fixed number of `u64` words, the
/// rows a [`WordArena`] stores.
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

impl WordEncoded for u32 {
    const WORDS: usize = 1;

    #[inline]
    fn write_words(&self, out: &mut [u64]) {
        out[0] = u64::from(*self);
    }

    #[inline]
    fn from_words(words: &[u64]) -> Self {
        words[0] as u32
    }
}

/// The words of `encoded` in a stack buffer, and the length of their
/// live prefix (0 for the all-zero state).
#[inline]
fn words_of<E: WordEncoded>(encoded: &E) -> ([u64; MAX_WORDS], usize) {
    let mut words = [0u64; MAX_WORDS];
    encoded.write_words(&mut words[..E::WORDS]);
    let live = words[..E::WORDS]
        .iter()
        .rposition(|&word| word != 0)
        .map_or(0, |last| last + 1);
    (words, live)
}

/// A visited set of `width`-word rows plus `u32` parent links, behind
/// the same [`Visited`] interface as [`crate::StateArena`].
pub struct WordArena<E> {
    /// Row `id` is `words[id * width..(id + 1) * width]`.
    words: Vec<u64>,
    /// The longest live prefix inserted so far.
    width: usize,
    parents: Vec<u32>,
    index: VisitedIndex,
    _encoding: PhantomData<fn() -> E>,
}

impl<E> WordArena<E> {
    /// Number of interned states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the arena is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parents.is_empty()
    }

    /// Words stored per state: the longest live prefix inserted so far.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// The BFS parent recorded for `id` ([`crate::NO_PARENT`] for roots).
    #[must_use]
    pub fn parent(&self, id: u32) -> u32 {
        self.parents[id as usize]
    }

    /// Every state's parent index, by id.
    #[must_use]
    pub fn parents(&self) -> &[u32] {
        &self.parents
    }

    /// Approximate resident bytes of the visited set: the rows and
    /// parent links it holds (their length, not the capacity the last
    /// doubling left) and the hash index, zeroed to its full size.
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        let word_bytes = self.words.len() * std::mem::size_of::<u64>();
        let parent_bytes = self.parents.len() * std::mem::size_of::<u32>();
        (word_bytes + parent_bytes + self.index.approx_bytes()) as u64
    }

    /// The stored words of state `id`.
    fn row(&self, id: u32) -> &[u64] {
        let start = id as usize * self.width;
        &self.words[start..start + self.width]
    }

    /// Re-lays every row out at `width` words, zero-filling the new
    /// tail. Rows move back to front, so no row is overwritten before it
    /// has moved.
    fn widen(&mut self, width: usize) {
        let (old, rows) = (self.width, self.parents.len());
        self.words.resize(rows * width, 0);
        for row in (0..rows).rev() {
            self.words
                .copy_within(row * old..(row + 1) * old, row * width);
            self.words[row * width + old..(row + 1) * width].fill(0);
        }
        self.width = width;
    }
}

impl<E: WordEncoded> WordArena<E> {
    /// An empty arena.
    ///
    /// # Panics
    ///
    /// Panics if `E::WORDS` is zero or exceeds [`MAX_WORDS`].
    #[must_use]
    pub fn new() -> Self {
        assert!(
            E::WORDS >= 1 && E::WORDS <= MAX_WORDS,
            "WordArena supports 1..={MAX_WORDS} words per state, got {}",
            E::WORDS
        );
        WordArena {
            words: Vec::new(),
            width: 0,
            parents: Vec::new(),
            index: VisitedIndex::default(),
            _encoding: PhantomData,
        }
    }

    /// Materializes the encoded state stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by an insert on this arena.
    #[must_use]
    pub fn decode(&self, id: u32) -> E {
        let mut words = [0u64; MAX_WORDS];
        words[..self.width].copy_from_slice(self.row(id));
        E::from_words(&words[..E::WORDS])
    }

    /// Looks up an encoded state by its precomputed Fx hash without
    /// inserting (see [`crate::StateArena::lookup_hashed`]).
    #[must_use]
    pub fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        let (words, live) = words_of(encoded);
        if live > self.width {
            return None;
        }
        let probe = &words[..self.width];
        self.index.find(hash, |id| self.row(id) == probe)
    }

    /// Interns an encoded state the caller has just confirmed absent via
    /// [`Self::lookup_hashed`] with the same `hash`, widening every row
    /// first if its live prefix is longer than the current width.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds `u32::MAX` states: ids are
    /// `u32`, and [`crate::NO_PARENT`] is reserved.
    pub fn insert_new_hashed(&mut self, hash: u64, encoded: &E, parent: u32) -> u32 {
        let id = self.append(encoded, parent);
        self.index.insert(hash, id);
        id
    }

    /// Stores an encoded state under the next id without indexing it
    /// (see [`Visited::append`]), widening every row first if its live
    /// prefix is longer than the current width.
    ///
    /// # Panics
    ///
    /// Panics if the arena already holds `u32::MAX` states.
    pub fn append(&mut self, encoded: &E, parent: u32) -> u32 {
        let id = id_of(self.parents.len());
        let (words, live) = words_of(encoded);
        if live > self.width {
            self.widen(live);
        }
        self.words.extend_from_slice(&words[..self.width]);
        self.parents.push(parent);
        id
    }
}

impl<E: WordEncoded> Visited<E> for WordArena<E> {
    fn len(&self) -> usize {
        WordArena::len(self)
    }

    fn parent(&self, id: u32) -> u32 {
        WordArena::parent(self, id)
    }

    fn lookup_hashed(&self, hash: u64, encoded: &E) -> Option<u32> {
        WordArena::lookup_hashed(self, hash, encoded)
    }

    fn append(&mut self, encoded: E, parent: u32) -> u32 {
        WordArena::append(self, &encoded, parent)
    }

    fn index_mut(&mut self) -> &mut VisitedIndex {
        &mut self.index
    }

    fn with_encoded<R>(&self, id: u32, f: impl FnOnce(&E) -> R) -> R {
        f(&self.decode(id))
    }

    fn approx_bytes(&self) -> u64 {
        WordArena::approx_bytes(self)
    }
}

impl<E: WordEncoded> Default for WordArena<E> {
    fn default() -> Self {
        WordArena::new()
    }
}

impl<E> std::fmt::Debug for WordArena<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WordArena")
            .field("states", &self.parents.len())
            .field("width", &self.width)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashing::fx_hash;
    use crate::intern::{StateArena, NO_PARENT};

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

    fn insert(arena: &mut WordArena<Quad>, q: Quad, parent: u32) -> u32 {
        let hash = fx_hash(&q);
        assert_eq!(arena.lookup_hashed(hash, &q), None, "test inserts are new");
        arena.insert_new_hashed(hash, &q, parent)
    }

    #[test]
    fn rows_survive_every_widening() {
        // Each state reaches one word further than the last, the first
        // being all zero: four re-layouts, and every earlier row must
        // still decode and be found.
        let mut arena: WordArena<Quad> = WordArena::new();
        let states = [
            Quad([0, 0, 0, 0]),
            Quad([5, 0, 0, 0]),
            Quad([6, 7, 0, 0]),
            Quad([0, 0, 8, 0]),
            Quad([1, 0, 0, 9]),
        ];
        let mut parent = NO_PARENT;
        for (i, &q) in states.iter().enumerate() {
            parent = insert(&mut arena, q, parent);
            assert_eq!(arena.width(), [0, 1, 2, 3, 4][i], "after {q:?}");
            for (id, &stored) in states[..=i].iter().enumerate() {
                assert_eq!(arena.decode(id as u32), stored, "state {id}");
                assert_eq!(
                    arena.lookup_hashed(fx_hash(&stored), &stored),
                    Some(id as u32)
                );
            }
        }
        assert_eq!(arena.words.len(), states.len() * 4);
    }

    #[test]
    fn probes_past_the_width_are_rejected() {
        let mut arena: WordArena<Quad> = WordArena::new();
        insert(&mut arena, Quad([3, 4, 0, 0]), NO_PARENT);
        // Same first two words, a live third: not stored.
        let longer = Quad([3, 4, 1, 0]);
        assert_eq!(arena.lookup_hashed(fx_hash(&longer), &longer), None);
        // The all-zero state is not stored either, though it fits.
        let zero = Quad([0; 4]);
        assert_eq!(arena.lookup_hashed(fx_hash(&zero), &zero), None);
        assert_eq!(arena.width(), 2);
    }

    #[test]
    fn narrow_states_store_only_their_live_prefix() {
        // 1,024 states whose last three words are zero: one word each.
        let mut arena: WordArena<Quad> = WordArena::new();
        let mut parent = NO_PARENT;
        for i in 1..=1024u64 {
            parent = insert(&mut arena, Quad([i, 0, 0, 0]), parent);
        }
        assert_eq!(arena.width(), 1);
        assert_eq!(arena.words.len(), 1024);
    }

    /// Force every key into one hash: equal encodings must still dedup,
    /// confirmed by comparing rows, and distinct ones must all be
    /// retained — also across a widening.
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
        // States 0..10 live in two words, 10..20 in four.
        let state = |i: u64| Collide(Quad([i, i / 3, 0, u64::from(i >= 10)]));
        let mut arena: WordArena<Collide> = WordArena::new();
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
            assert_eq!(arena.decode(i as u32), state(i));
        }
        assert_eq!(arena.len(), 20);
    }

    /// The word arena and the plain arena agree on every id, parent and
    /// decode for the same insert sequence: they are interchangeable
    /// storage for the same exploration.
    #[test]
    fn agrees_with_plain_arena_on_ids() {
        let mut words: WordArena<u64> = WordArena::new();
        let mut plain: StateArena<u64> = StateArena::new();
        let seq: Vec<u64> = (0..200).map(|i| (i * 37) % 120).collect();
        let mut last: u32 = NO_PARENT;
        for &v in &seq {
            let hash = fx_hash(&v);
            let w = match words.lookup_hashed(hash, &v) {
                Some(id) => (id, false),
                None => (words.insert_new_hashed(hash, &v, last), true),
            };
            let p = plain.intern(v, last);
            assert_eq!(w, p, "value {v}");
            last = w.0;
        }
        assert_eq!(words.len(), plain.len());
        for id in 0..words.len() as u32 {
            assert_eq!(words.decode(id), *plain.get(id));
            assert_eq!(words.parent(id), plain.parent(id));
        }
    }

    #[test]
    fn u32_words_round_trip() {
        for v in [0u32, 1, u32::MAX] {
            let mut out = [0u64; 1];
            v.write_words(&mut out);
            assert_eq!(u32::from_words(&out), v);
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
        let _ = WordArena::<Big>::new();
    }
}
