//! Property-based tests of the word arena against the plain interning
//! arena.
//!
//! The [`WordArena`] stores each state as its live word prefix, as wide
//! as the widest state stored so far, and re-lays its rows out whenever
//! an insert is wider. These tests drive it with randomized insertion
//! scripts whose states widen the live prefix late, one word position
//! at a time, with the all-zero state among them, and require exact
//! agreement with the full-width [`StateArena`] on every observable:
//! assigned ids, parents, lookups (present and absent), decoded
//! encodings, and whole exploration outcomes through a [`StateCodec`].

use proptest::prelude::*;
use tta_modelcheck::hashing::fx_hash;
use tta_modelcheck::{
    Explorer, StateArena, StateCodec, TransitionSystem, Visited, WordArena, WordEncoded, NO_PARENT,
};

/// A four-word encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Wide([u64; 4]);

impl WordEncoded for Wide {
    const WORDS: usize = 4;

    fn write_words(&self, out: &mut [u64]) {
        out.copy_from_slice(&self.0);
    }

    fn from_words(words: &[u64]) -> Self {
        let mut packed = [0u64; 4];
        packed.copy_from_slice(words);
        Wide(packed)
    }
}

/// Dedup-then-intern through the hashed [`Visited`] API, the way the
/// layer step drives both arenas.
fn intern<V: Visited<Wide>>(visited: &mut V, hash: u64, encoded: Wide, parent: u32) -> u32 {
    match visited.lookup_hashed(hash, &encoded) {
        Some(id) => id,
        None => visited.insert_new_hashed(hash, encoded, parent),
    }
}

/// One script step: four small words (small ranges force duplicates)
/// and a parent selector resolved against the ids inserted so far.
type Step = (u64, u64, u64, u64, u8);

/// Insertion scripts plus where the all-zero state goes: first (before
/// any word is live) or at a step's position.
fn arb_script() -> impl Strategy<Value = (Vec<Step>, bool, usize)> {
    (
        prop::collection::vec((0..6u64, 0..6u64, 0..6u64, 0..6u64, any::<u8>()), 8..160),
        any::<bool>(),
        0..160usize,
    )
}

/// The states a script inserts, in order. Step `k` of `n` keeps only its
/// first `1 + 4k/n` words live, and the first step of each such stage
/// makes its last live word non-zero: each word position first goes
/// live late in the script, after narrower states are stored.
fn states_of(script: &[Step], zero_first: bool, zero_at: usize) -> Vec<(Wide, u8)> {
    let n = script.len();
    let mut states = Vec::with_capacity(n + 1);
    if zero_first {
        states.push((Wide([0; 4]), 0));
    }
    let mut live = 0;
    for (k, &(a, b, c, d, pick)) in script.iter().enumerate() {
        let cap = 1 + 4 * k / n;
        let mut words = [a, b, c, d];
        words[cap..].fill(0);
        if cap > live {
            words[cap - 1] = words[cap - 1].max(1);
            live = cap;
        }
        if !zero_first && k == zero_at % n {
            words = [0; 4];
        }
        states.push((Wide(words), pick));
    }
    states
}

/// Runs one script through both arenas under `hash` and compares every
/// id, parent, decode and lookup.
fn agree(
    states: &[(Wide, u8)],
    hash: impl Fn(&Wide) -> u64,
) -> Result<WordArena<Wide>, TestCaseError> {
    let mut words: WordArena<Wide> = WordArena::new();
    let mut plain: StateArena<Wide> = StateArena::new();
    for &(encoded, pick) in states {
        let parent = if plain.is_empty() {
            NO_PARENT
        } else {
            u32::try_from(pick as usize % plain.len()).unwrap()
        };
        let h = hash(&encoded);
        let word_id = intern(&mut words, h, encoded, parent);
        let plain_id = intern(&mut plain, h, encoded, parent);
        prop_assert_eq!(word_id, plain_id, "id of {:?}", encoded);
    }
    prop_assert_eq!(words.len(), plain.len());
    for id in 0..plain.len() as u32 {
        let stored = *plain.get(id);
        prop_assert_eq!(words.decode(id), stored, "decode at {}", id);
        prop_assert_eq!(words.parent(id), plain.parent(id), "parent at {}", id);
        prop_assert_eq!(words.lookup_hashed(hash(&stored), &stored), Some(id));
    }
    // Probes over the full width and the all-zero state, present or
    // not: both arenas answer alike.
    let probes = states
        .iter()
        .map(|&(Wide([a, b, c, d]), pick)| Wide([d, a, u64::from(pick % 3), b ^ c]))
        .chain([Wide([0; 4]), Wide([0, 0, 0, 1])]);
    for probe in probes {
        let h = hash(&probe);
        prop_assert_eq!(
            words.lookup_hashed(h, &probe),
            plain.lookup_hashed(h, &probe),
            "lookup of {:?}",
            probe
        );
    }
    Ok(words)
}

proptest! {
    /// Ids, parents, decodes and lookups agree with the plain arena, and
    /// the arena ends as wide as its widest state.
    #[test]
    fn word_and_plain_arenas_agree_on_widening_scripts(
        (script, zero_first, zero_at) in arb_script()
    ) {
        let states = states_of(&script, zero_first, zero_at);
        let words = agree(&states, fx_hash)?;
        prop_assert_eq!(words.width(), 4);
    }

    /// Every state in one hash (all tags and homes equal): the word
    /// arena still tells states apart by comparing rows, across every
    /// re-layout.
    #[test]
    fn forced_hash_collisions_are_resolved_by_comparing_rows(
        (script, zero_first, zero_at) in arb_script()
    ) {
        let states = states_of(&script, zero_first, zero_at);
        agree(&states, |_| 0)?;
    }
}

/// A random digraph explored through a packing codec.
#[derive(Debug, Clone)]
struct RandomGraph {
    edges: Vec<Vec<u32>>,
    bad: Vec<bool>,
}

impl TransitionSystem for RandomGraph {
    type State = u32;

    fn initial_states(&self) -> Vec<u32> {
        vec![0]
    }

    fn successors(&self, s: &u32, out: &mut Vec<u32>) {
        out.extend(self.edges[*s as usize].iter().copied());
    }
}

/// Spreads a node id over four words, two bits per word below the last:
/// node 0 is the all-zero state, and higher ids go live in more words,
/// so the arena widens mid-exploration.
#[derive(Debug, Clone, Copy)]
struct SpreadCodec;

impl StateCodec for SpreadCodec {
    type State = u32;
    type Encoded = Wide;

    fn encode(&self, s: &u32) -> Wide {
        let s = u64::from(*s);
        Wide([s & 3, s >> 2 & 3, s >> 4 & 3, s >> 6])
    }

    fn decode(&self, e: &Wide) -> u32 {
        let [a, b, c, d] = e.0;
        (a | b << 2 | c << 4 | d << 6) as u32
    }
}

fn arb_graph(max_nodes: usize) -> impl Strategy<Value = RandomGraph> {
    (2..max_nodes).prop_flat_map(|n| {
        (
            prop::collection::vec(prop::collection::vec(0..n as u32, 0..4), n),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(0.0f64..1.0, n),
        )
            .prop_map(move |(edges, coin, weight)| RandomGraph {
                edges,
                bad: coin
                    .into_iter()
                    .zip(weight)
                    .map(|(c, w)| c && w < 0.15)
                    .collect(),
            })
    })
}

proptest! {
    /// Whole-exploration agreement through a codec at 1 and 2 threads:
    /// verdict, every stat but the footprint, and the exact
    /// counterexample states.
    #[test]
    fn word_arena_exploration_matches_plain(graph in arb_graph(120)) {
        let inv = |s: &u32| !graph.bad[*s as usize];
        let plain = Explorer::new().check_with_codec(&graph, &SpreadCodec, inv);
        for threads in [1, 2] {
            let words = Explorer::new()
                .threads(threads)
                .chunk_states(4)
                .check_with_delta_codec(&graph, &SpreadCodec, inv);
            prop_assert_eq!(words.verdict, plain.verdict);
            let (mut a, b) = (words.stats, plain.stats);
            (a.duration, a.visited_bytes) = (b.duration, b.visited_bytes);
            prop_assert_eq!(a, b, "{} threads", threads);
            match (&plain.counterexample, words.counterexample) {
                (None, None) => {}
                (Some(a), Some(b)) => prop_assert_eq!(a.states(), b.states(), "traces diverged"),
                (a, b) => prop_assert!(false, "one arena found a trace: {:?} vs {:?}", a.is_some(), b.is_some()),
            }
        }
    }
}
