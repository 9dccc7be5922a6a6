//! The fair transition graph: the reachable state space built once, in
//! interned compact form, with per-edge action labels and per-state
//! enabledness masks.
//!
//! Liveness analysis needs the *whole* reachable graph (cycles live
//! anywhere), not just a frontier, so memory discipline matters even
//! more than in the BFS checker. Graph construction is a walk on the
//! safety checker's layer step ([`Explorer::walk`]) and its interning
//! stack — [`StateCodec`] encodings stored once in a [`WordArena`], each
//! as its live word prefix, BFS parents as `u32` indices — and adds a
//! CSR adjacency with one `u32` action-label bitmask per edge. States
//! are expanded in id order, so each state's edges are appended as its
//! CSR row directly: no global edge list, no sort.
//!
//! Two details keep later verdicts sound:
//!
//! * **Enabledness is derived during generation.** An action is enabled
//!   in a state iff some *generated* successor takes it. The mask is
//!   accumulated over every generated edge — including edges into
//!   states dropped by the `max_states` budget — so "enabled but never
//!   taken on this cycle" can never be a truncation artifact and
//!   `Violated` verdicts remain sound on truncated graphs (a would-be
//!   `Holds` becomes `BudgetExhausted` instead).
//! * **Deadlocks get a stutter loop.** A state with no successors
//!   receives a synthetic self-loop (label 0), the standard stutter
//!   extension: every state then has an infinite behaviour, and a
//!   maximal finite run appears as a lasso whose cycle repeats the
//!   final state. The loop is marked so renderers do not present it as
//!   a model transition.

use crate::fairness::{FairAction, MAX_FAIR_ACTIONS};
use std::fmt;
use std::time::Duration;
use tta_modelcheck::{
    Explorer, Flow, StateCodec, Target, TransitionSystem, Walk, WordArena, WordEncoded, NO_PARENT,
};

/// States per stolen chunk of a build wave. Graph construction labels
/// every generated edge — more work per state than the safety check's
/// successor step — so chunks can be smaller before claim-counter
/// contention shows.
const BUILD_CHUNK_STATES: usize = 512;

/// How often one registered fairness action is actually exercised in a
/// built [`FairGraph`] (see [`FairGraph::action_usage`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionUsage {
    /// The action's name, as registered.
    pub name: String,
    /// States whose enabledness mask includes this action (counted over
    /// all generated edges, so sound under truncation).
    pub enabled_states: u64,
    /// Stored edges labeled with this action.
    pub labeled_edges: u64,
}

/// What the property searches read of a [`FairGraph`]: the labeled CSR,
/// the per-state masks and the BFS parents, as plain slices. It holds
/// no codec and no encoded state, so searches share it across worker
/// threads whatever the codec.
#[derive(Clone, Copy)]
pub(crate) struct Topology<'g> {
    pub(crate) offsets: &'g [usize],
    pub(crate) targets: &'g [u32],
    labels: &'g [u32],
    enabled: &'g [u32],
    deadlock: &'g [bool],
    parents: &'g [u32],
    pub(crate) initial: &'g [u32],
    /// Bitmask covering every registered action.
    pub(crate) all_actions: u32,
}

impl<'g> Topology<'g> {
    /// Number of states.
    pub(crate) fn state_count(&self) -> usize {
        self.enabled.len()
    }

    /// Outgoing `(target, label)` pairs of `v`, stutter loop included.
    pub(crate) fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + 'g {
        let range = self.offsets[v as usize]..self.offsets[v as usize + 1];
        let (targets, labels) = (self.targets, self.labels);
        range.map(move |i| (targets[i], labels[i]))
    }

    /// Actions enabled in `v`.
    pub(crate) fn enabled_mask(&self, v: u32) -> u32 {
        self.enabled[v as usize]
    }

    /// Whether `v` carries a synthetic stutter loop.
    pub(crate) fn is_deadlock(&self, v: u32) -> bool {
        self.deadlock[v as usize]
    }

    /// The shortest-path id chain from an initial state to `v`
    /// (inclusive), via arena parents.
    pub(crate) fn stem_ids_to(&self, v: u32) -> Vec<u32> {
        let mut chain = vec![v];
        let mut cur = v;
        while self.parents[cur as usize] != NO_PARENT {
            cur = self.parents[cur as usize];
            chain.push(cur);
        }
        chain.reverse();
        chain
    }
}

/// The reachable state graph of a [`TransitionSystem`], interned through
/// a [`StateCodec`] whose encoding is [`WordEncoded`], labeled with
/// weak-fairness actions.
pub struct FairGraph<'c, C: StateCodec> {
    codec: &'c C,
    arena: WordArena<C::Encoded>,
    offsets: Vec<usize>,
    targets: Vec<u32>,
    labels: Vec<u32>,
    enabled: Vec<u32>,
    deadlock: Vec<bool>,
    initial: Vec<u32>,
    action_names: Vec<String>,
    action_mask: u32,
    truncated: bool,
    edges_generated: u64,
    build_time: Duration,
}

impl<C: StateCodec> fmt::Debug for FairGraph<'_, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FairGraph")
            .field("states", &self.arena.len())
            .field("edges", &self.targets.len())
            .field("actions", &self.action_names)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl<'c, C> FairGraph<'c, C>
where
    C: StateCodec,
    C::Encoded: WordEncoded,
{
    /// Explores `system` breadth-first and builds the labeled graph,
    /// keeping at most `max_states` distinct states: the one-thread
    /// [`Self::build_with_threads`].
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_FAIR_ACTIONS`] fairness constraints are
    /// supplied, or if the state space exceeds `u32` addressing.
    #[must_use]
    pub fn build<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
    ) -> Self
    where
        T: TransitionSystem<State = C::State> + Sync,
        C: Sync,
        C::Encoded: Send + Sync,
    {
        Self::build_with_threads(system, codec, fairness, max_states, 1)
    }

    /// Builds the labeled graph with `threads` worker threads, on the
    /// explorer's layer step ([`tta_modelcheck::Explorer::walk`]).
    ///
    /// Each BFS layer is one *wave*. Workers steal fixed-size chunks of
    /// it, expand each state, label every generated edge and resolve its
    /// target against the arena; the merge gives the chunks' new states
    /// their ids in wave order (finding the states several chunks
    /// proposed and filling the arena's index shard by shard, on the
    /// same threads), and each expanded state's edges become its CSR row
    /// with the targets resolved. Ids follow the order of a sequential
    /// scan, so states, ids, parents, edges, labels and the truncation
    /// flag are the same at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, if more than [`MAX_FAIR_ACTIONS`]
    /// fairness constraints are supplied, or if the state space exceeds
    /// `u32` addressing.
    #[must_use]
    pub fn build_with_threads<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
        threads: usize,
    ) -> Self
    where
        T: TransitionSystem<State = C::State> + Sync,
        C: Sync,
        C::Encoded: Send + Sync,
    {
        assert!(
            fairness.len() <= MAX_FAIR_ACTIONS,
            "at most {MAX_FAIR_ACTIONS} weak-fairness constraints per graph (got {})",
            fairness.len()
        );
        let mut arena = WordArena::new();
        let mut rows = Rows {
            fairness,
            offsets: vec![0],
            targets: Vec::new(),
            labels: Vec::new(),
            enabled: Vec::new(),
            deadlock: Vec::new(),
            truncated: false,
        };
        let walked = Explorer::new()
            .threads(threads)
            .chunk_states(BUILD_CHUNK_STATES)
            .max_states(max_states.min(u64::from(u32::MAX - 1)))
            .walk(system, codec, &mut arena, &mut rows);
        // Trim the scan-grown vectors to their length, so
        // `approx_bytes` counts what is resident.
        rows.offsets.shrink_to_fit();
        rows.targets.shrink_to_fit();
        rows.labels.shrink_to_fit();
        rows.enabled.shrink_to_fit();
        rows.deadlock.shrink_to_fit();
        FairGraph {
            codec,
            arena,
            offsets: rows.offsets,
            targets: rows.targets,
            labels: rows.labels,
            enabled: rows.enabled,
            deadlock: rows.deadlock,
            initial: (0..walked.roots).collect(),
            action_names: fairness.iter().map(|a| a.name().to_string()).collect(),
            action_mask: if fairness.is_empty() {
                0
            } else {
                u32::MAX >> (32 - fairness.len())
            },
            truncated: rows.truncated,
            edges_generated: walked.stats.transitions,
            build_time: walked.stats.duration,
        }
    }

    /// Number of distinct reachable states kept.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.arena.len()
    }

    /// Number of stored edges (including synthetic stutter loops).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Number of transitions the model generated, dropped or kept
    /// (stutter loops excluded).
    #[must_use]
    pub fn edges_generated(&self) -> u64 {
        self.edges_generated
    }

    /// Whether the `max_states` budget cut off part of the graph.
    #[must_use]
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Ids of the initial states.
    #[must_use]
    pub fn initial(&self) -> &[u32] {
        &self.initial
    }

    /// Whether `id` is a deadlock state carrying a synthetic stutter
    /// loop.
    #[must_use]
    pub fn is_deadlock(&self, id: u32) -> bool {
        self.topology().is_deadlock(id)
    }

    /// Decodes the state stored at `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn state(&self, id: u32) -> C::State {
        self.codec.decode(&self.arena.decode(id))
    }

    /// Names of the registered fairness actions, bit order.
    #[must_use]
    pub fn action_names(&self) -> &[String] {
        &self.action_names
    }

    /// Wall-clock time spent building the graph.
    #[must_use]
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Approximate resident bytes: the interned arena plus the CSR and
    /// per-state arrays (trimmed to length when the build finishes).
    #[must_use]
    pub fn approx_bytes(&self) -> u64 {
        self.arena.approx_bytes()
            + (self.offsets.capacity() * std::mem::size_of::<usize>()
                + self.targets.capacity() * std::mem::size_of::<u32>()
                + self.labels.capacity() * std::mem::size_of::<u32>()
                + self.enabled.capacity() * std::mem::size_of::<u32>()
                + self.deadlock.capacity()) as u64
    }

    /// Outgoing `(target, label)` pairs of `v`, stutter loop included.
    ///
    /// The label is the bitmask of fairness actions the edge takes, in
    /// [`Self::action_names`] bit order (0 for the synthetic stutter
    /// loop). Public so graph consumers beyond the property algorithms —
    /// the vacuity and coverage analyses in `tta-modellint` — can walk
    /// the labeled adjacency without rebuilding the space.
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.topology().neighbors(v)
    }

    /// Actions enabled in `v`, as a bitmask in [`Self::action_names`]
    /// bit order. Derived over **all generated edges**, including edges
    /// dropped by the `max_states` budget, so a zero bit is never a
    /// truncation artifact.
    #[must_use]
    pub fn enabled_mask(&self, v: u32) -> u32 {
        self.topology().enabled_mask(v)
    }

    /// Per-action usage statistics over the kept graph: for each
    /// registered fairness action, the number of states where it is
    /// enabled and the number of stored edges labeled with it.
    ///
    /// A fairness constraint whose labeled-edge count is zero constrains
    /// nothing — every fair cycle trivially satisfies it — which is the
    /// `ML04-unused-fairness` lint in `tta-modellint`.
    #[must_use]
    pub fn action_usage(&self) -> Vec<ActionUsage> {
        let mut usage: Vec<ActionUsage> = self
            .action_names
            .iter()
            .map(|name| ActionUsage {
                name: name.clone(),
                enabled_states: 0,
                labeled_edges: 0,
            })
            .collect();
        for &mask in &self.enabled {
            let mut bits = mask;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                usage[i].enabled_states += 1;
                bits &= bits - 1;
            }
        }
        for &label in &self.labels {
            let mut bits = label;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                usage[i].labeled_edges += 1;
                bits &= bits - 1;
            }
        }
        usage
    }

    /// BFS depth of `v`: the length in transitions of the shortest
    /// stem from an initial state (0 for initial states). Used by the
    /// vacuity analyses to report how deep the first witness lies.
    #[must_use]
    pub fn bfs_depth(&self, v: u32) -> usize {
        self.topology().stem_ids_to(v).len() - 1
    }

    /// The slices the property searches read (check.rs).
    pub(crate) fn topology(&self) -> Topology<'_> {
        Topology {
            offsets: &self.offsets,
            targets: &self.targets,
            labels: &self.labels,
            enabled: &self.enabled,
            deadlock: &self.deadlock,
            parents: self.arena.parents(),
            initial: &self.initial,
            all_actions: self.action_mask,
        }
    }
}

/// The fairness-action bitmask of one transition.
fn edge_label<S>(fairness: &[FairAction<S>], from: &S, to: &S) -> u32 {
    let mut label = 0u32;
    for (i, action) in fairness.iter().enumerate() {
        if action.taken(from, to) {
            label |= 1 << i;
        }
    }
    label
}

/// The build as a walk on the layer step: workers label each generated
/// edge, and the calling thread appends each expanded state's CSR row,
/// in id order, with the edge targets resolved.
struct Rows<'f, S> {
    fairness: &'f [FairAction<S>],
    offsets: Vec<usize>,
    targets: Vec<u32>,
    labels: Vec<u32>,
    enabled: Vec<u32>,
    deadlock: Vec<bool>,
    truncated: bool,
}

/// One chunk's labelled edges with their targets as the worker resolved
/// them, and per expanded state the end of its edges and its
/// enabledness mask.
#[derive(Default)]
struct RowChunk {
    edges: Vec<(Target, u32)>,
    rows: Vec<(u32, u32)>,
}

impl<S> Walk<S> for Rows<'_, S> {
    type Chunk = RowChunk;

    fn expanded(&self, chunk: &mut RowChunk, from: Option<&S>, succs: &[S], targets: &[Target]) {
        // The initial states are nobody's successors: no row.
        let Some(from) = from else { return };
        let mut mask = 0u32;
        for (succ, &target) in succs.iter().zip(targets) {
            let label = edge_label(self.fairness, from, succ);
            // Enabledness counts every generated edge, kept or not.
            mask |= label;
            chunk.edges.push((target, label));
        }
        chunk.rows.push((chunk.edges.len() as u32, mask));
    }

    fn adopt(&mut self, chunk: RowChunk, ids: &[Option<u32>]) -> Flow {
        // A state the budget drops takes its edges with it.
        self.truncated |= ids.contains(&None);
        let mut start = 0;
        for (end, mask) in chunk.rows {
            let edges = &chunk.edges[start..end as usize];
            start = end as usize;
            if edges.is_empty() {
                // Stutter extension: a synthetic self-loop, no labels.
                // Rows arrive in id order, so this is state `enabled.len()`.
                self.targets.push(self.enabled.len() as u32);
                self.labels.push(0);
            }
            for &(target, label) in edges {
                let resolved = match target {
                    Target::Visited(id) => Some(id),
                    Target::Proposed(p) => ids[p as usize],
                };
                if let Some(id) = resolved {
                    self.targets.push(id);
                    self.labels.push(label);
                }
            }
            // A truncation-frontier state, whose every successor the
            // budget dropped, closes an empty row.
            self.offsets.push(self.targets.len());
            self.enabled.push(mask);
            self.deadlock.push(edges.is_empty());
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_modelcheck::hashing::fx_hash;
    use tta_modelcheck::IdentityCodec;

    /// 0 → 1 → 2 → 1 (cycle), plus 0 → 3 (deadlock).
    struct Diamond;
    impl TransitionSystem for Diamond {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match s {
                0 => out.extend([1, 3]),
                1 => out.push(2),
                2 => out.push(1),
                _ => {}
            }
        }
    }

    fn build(
        fairness: &[FairAction<u32>],
        max_states: u64,
    ) -> FairGraph<'static, IdentityCodec<u32>> {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        FairGraph::build(&Diamond, &CODEC, fairness, max_states)
    }

    #[test]
    fn builds_states_edges_and_stutter_loop() {
        let g = build(&[], 1 << 20);
        assert_eq!(g.state_count(), 4);
        // 4 real edges + 1 stutter loop on the deadlock state.
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.edges_generated(), 4);
        assert!(!g.is_truncated());
        let dead = (0..4).find(|&v| g.is_deadlock(v)).expect("one deadlock");
        assert_eq!(g.state(dead), 3);
        assert_eq!(g.neighbors(dead).collect::<Vec<_>>(), [(dead, 0)]);
    }

    #[test]
    fn labels_and_enabledness_are_derived_from_actions() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let g = build(&[forward], 1 << 20);
        let id1 = (0..4).find(|&v| g.state(v) == 1).unwrap();
        let id2 = (0..4).find(|&v| g.state(v) == 2).unwrap();
        // 1 → 2 takes "forward"; 2 → 1 does not, so "forward" is
        // enabled at 1 but not at 2.
        assert_eq!(g.enabled_mask(id1), 1);
        assert_eq!(g.enabled_mask(id2), 0);
        assert_eq!(g.topology().all_actions, 1);
        let labels: Vec<u32> = g.neighbors(id1).map(|(_, l)| l).collect();
        assert_eq!(labels, [1]);
    }

    #[test]
    fn action_usage_counts_states_and_edges() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let never = FairAction::new("never", |_: &u32, _: &u32| false);
        let g = build(&[forward, never], 1 << 20);
        let usage = g.action_usage();
        assert_eq!(usage.len(), 2);
        // "forward" is taken on 0→1, 0→3 and 1→2: enabled at states
        // 0 and 1, labeling three stored edges.
        assert_eq!(usage[0].name, "forward");
        assert_eq!(usage[0].enabled_states, 2);
        assert_eq!(usage[0].labeled_edges, 3);
        assert_eq!(usage[1].name, "never");
        assert_eq!(usage[1].enabled_states, 0);
        assert_eq!(usage[1].labeled_edges, 0);
    }

    #[test]
    fn truncation_keeps_enabledness_of_dropped_edges() {
        let forward = FairAction::new("forward", |a: &u32, b: &u32| b > a);
        let g = build(&[forward], 2);
        assert!(g.is_truncated());
        assert_eq!(g.state_count(), 2);
        // State 1's only successor (2) was dropped, but "forward" must
        // still read as enabled there.
        let id1 = (0..2).find(|&v| g.state(v) == 1).unwrap();
        assert_eq!(g.enabled_mask(id1), 1);
    }

    #[test]
    fn stem_ids_follow_bfs_parents() {
        let g = build(&[], 1 << 20);
        let id2 = (0..4).find(|&v| g.state(v) == 2).unwrap();
        let stem: Vec<u32> = g
            .topology()
            .stem_ids_to(id2)
            .iter()
            .map(|&v| g.state(v))
            .collect();
        assert_eq!(stem, [0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "weak-fairness constraints")]
    fn too_many_actions_are_rejected() {
        let actions: Vec<FairAction<u32>> = (0..33)
            .map(|i| FairAction::new(format!("a{i}"), |_: &u32, _: &u32| false))
            .collect();
        let _ = build(&actions, 1 << 20);
    }

    /// A fan wide enough to split into several stolen chunks per wave:
    /// 0 → 1..=1500, each i → a shared child (cross-chunk dedup), the
    /// children alternate between a back-cycle and a deadlock.
    struct WideFan;
    impl TransitionSystem for WideFan {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match *s {
                0 => out.extend(1..=1500),
                s if (1..=1500).contains(&s) => out.push(1501 + s % 100),
                s if (1501..1601).contains(&s) && s % 2 == 0 => out.push(0),
                _ => {}
            }
        }
    }

    /// A root fanning out to 1,100 leaves, each stepping to two of 550
    /// grandchildren, which step back to the root and a leaf. The wave
    /// of leaves fills three stolen chunks that propose the grandchildren
    /// 1,235 times between them, each in two or three chunks: enough
    /// for the merge's threaded steps.
    struct Fan;
    impl TransitionSystem for Fan {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match *s {
                0 => out.extend(1..=1100),
                leaf if leaf <= 1100 => out.extend([1101 + leaf % 550, 1101 + leaf * 7 % 550]),
                grandchild => out.extend([0, 1 + grandchild * 3 % 1100]),
            }
        }
    }

    /// A [`Fan`] state whose Fx hash is pinned into one index shard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Pinned(u32);

    impl std::hash::Hash for Pinned {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            // Fx hashes one word `w` to `w * SEED`, with `SEED` (the hash
            // of 1) odd: writing the wanted hash times its inverse pins
            // shard 5 and spreads the key bits from the value.
            let seed = fx_hash(&1u64);
            let mut inverse = seed;
            for _ in 0..5 {
                inverse = inverse.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inverse)));
            }
            let spread = u64::from(self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 6;
            state.write_u64(((5 << 58) | spread).wrapping_mul(inverse));
        }
    }

    impl WordEncoded for Pinned {
        const WORDS: usize = 1;
        fn write_words(&self, out: &mut [u64]) {
            out[0] = u64::from(self.0);
        }
        fn from_words(words: &[u64]) -> Self {
            Pinned(words[0] as u32)
        }
    }

    /// Encodes `u32` states as [`Pinned`].
    #[derive(Debug)]
    struct PinnedCodec;
    impl StateCodec for PinnedCodec {
        type State = u32;
        type Encoded = Pinned;
        fn encode(&self, s: &u32) -> Pinned {
            Pinned(*s)
        }
        fn decode(&self, e: &Pinned) -> u32 {
            e.0
        }
    }

    static IDENTITY: IdentityCodec<u32> = IdentityCodec::new();

    /// The sequential scan the layer step replaced, kept as the
    /// independent reference: states in id order, each successor
    /// straight into the arena. Its roots are looked up before the
    /// budget is consulted, as its scan does.
    fn reference_build<T, C>(
        system: &T,
        codec: &'static C,
        fairness: &[FairAction<u32>],
        max_states: u64,
    ) -> FairGraph<'static, C>
    where
        T: TransitionSystem<State = u32>,
        C: StateCodec<State = u32>,
        C::Encoded: WordEncoded,
    {
        let max_states = max_states.min(u64::from(u32::MAX - 1));
        let mut graph = FairGraph {
            codec,
            arena: WordArena::new(),
            offsets: vec![0],
            targets: Vec::new(),
            labels: Vec::new(),
            enabled: Vec::new(),
            deadlock: Vec::new(),
            initial: Vec::new(),
            action_names: fairness.iter().map(|a| a.name().to_string()).collect(),
            action_mask: if fairness.is_empty() {
                0
            } else {
                u32::MAX >> (32 - fairness.len())
            },
            truncated: false,
            edges_generated: 0,
            build_time: Duration::ZERO,
        };
        for init in system.initial_states() {
            let encoded = codec.encode(&init);
            let hash = fx_hash(&encoded);
            if graph.arena.lookup_hashed(hash, &encoded).is_some() {
                continue;
            }
            if (graph.arena.len() as u64) >= max_states {
                graph.truncated = true;
                break;
            }
            let id = graph.arena.insert_new_hashed(hash, &encoded, NO_PARENT);
            graph.initial.push(id);
        }
        let mut succs: Vec<u32> = Vec::new();
        let mut cursor = 0u32;
        while (cursor as usize) < graph.arena.len() {
            let id = cursor;
            cursor += 1;
            let state = codec.decode(&graph.arena.decode(id));
            succs.clear();
            system.successors(&state, &mut succs);
            if succs.is_empty() {
                graph.targets.push(id);
                graph.labels.push(0);
                graph.offsets.push(graph.targets.len());
                graph.enabled.push(0);
                graph.deadlock.push(true);
                continue;
            }
            let mut mask = 0u32;
            for succ in &succs {
                graph.edges_generated += 1;
                let label = edge_label(fairness, &state, succ);
                mask |= label;
                let encoded = codec.encode(succ);
                let hash = fx_hash(&encoded);
                let target = match graph.arena.lookup_hashed(hash, &encoded) {
                    Some(t) => Some(t),
                    None if (graph.arena.len() as u64) < max_states => {
                        Some(graph.arena.insert_new_hashed(hash, &encoded, id))
                    }
                    None => {
                        graph.truncated = true;
                        None
                    }
                };
                if let Some(t) = target {
                    graph.targets.push(t);
                    graph.labels.push(label);
                }
            }
            graph.offsets.push(graph.targets.len());
            graph.enabled.push(mask);
            graph.deadlock.push(false);
        }
        graph
    }

    fn assert_graphs_identical<C>(expected: &FairGraph<'_, C>, built: &FairGraph<'_, C>, at: &str)
    where
        C: StateCodec<State = u32>,
        C::Encoded: WordEncoded,
    {
        assert_eq!(built.state_count(), expected.state_count(), "{at}");
        assert_eq!(built.edge_count(), expected.edge_count(), "{at}");
        assert_eq!(built.edges_generated(), expected.edges_generated(), "{at}");
        assert_eq!(built.is_truncated(), expected.is_truncated(), "{at}");
        assert_eq!(built.initial(), expected.initial(), "{at}");
        assert_eq!(
            built.arena.approx_bytes(),
            expected.arena.approx_bytes(),
            "{at}"
        );
        for v in 0..expected.state_count() as u32 {
            assert_eq!(built.state(v), expected.state(v), "{at}: state {v}");
            assert_eq!(
                built.arena.parent(v),
                expected.arena.parent(v),
                "{at}: parent {v}"
            );
            assert_eq!(
                built.enabled_mask(v),
                expected.enabled_mask(v),
                "{at}: mask {v}"
            );
            assert_eq!(
                built.is_deadlock(v),
                expected.is_deadlock(v),
                "{at}: deadlock {v}"
            );
            assert_eq!(
                built.neighbors(v).collect::<Vec<_>>(),
                expected.neighbors(v).collect::<Vec<_>>(),
                "{at}: adjacency {v}"
            );
        }
    }

    /// The layer step builds the reference scan's graph bit for bit at
    /// 1, 2 and 4 threads, whole or cut anywhere by the budget.
    fn assert_matches_reference<T, C>(
        system: &T,
        codec: &'static C,
        fairness: impl Fn() -> Vec<FairAction<u32>>,
        budgets: impl IntoIterator<Item = u64>,
    ) where
        T: TransitionSystem<State = u32> + Sync,
        C: StateCodec<State = u32> + Sync,
        C::Encoded: WordEncoded + Send + Sync,
    {
        for max_states in budgets {
            let expected = reference_build(system, codec, &fairness(), max_states);
            for threads in [1, 2, 4] {
                let built =
                    FairGraph::build_with_threads(system, codec, &fairness(), max_states, threads);
                let at = format!("budget {max_states}, {threads} threads");
                assert_graphs_identical(&expected, &built, &at);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn every_thread_count_builds_the_reference_graph() {
        let forward = || vec![FairAction::new("forward", |a: &u32, b: &u32| b > a)];
        assert!(
            reference_build(&WideFan, &IDENTITY, &forward(), 1 << 20).state_count()
                > 2 * BUILD_CHUNK_STATES,
            "waves split"
        );
        assert_matches_reference(&WideFan, &IDENTITY, forward, [1 << 20]);
        assert_matches_reference(&Diamond, &IDENTITY, forward, [1 << 20]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn every_thread_count_matches_the_reference_under_truncation() {
        assert!(reference_build(&WideFan, &IDENTITY, &[], 700).is_truncated());
        assert_matches_reference(
            &WideFan,
            &IDENTITY,
            Vec::new,
            [1, 2, 3, 700, 1501, 1502, 1600],
        );
        assert_matches_reference(&Diamond, &IDENTITY, Vec::new, [1, 2, 3, 4]);
    }

    /// Waves whose chunks propose the same states, spread over the
    /// index shards or all in one, whole and cut by the budget: at every
    /// position near the ends of the waves (the root's, the leaves',
    /// the grandchildren's) and at every fifth one between.
    #[test]
    #[cfg_attr(miri, ignore = "hundreds of builds are too slow interpreted")]
    fn repeats_across_chunks_and_budget_cuts_match_the_reference() {
        static PINNED: PinnedCodec = PinnedCodec;
        let forward = || vec![FairAction::new("forward", |a: &u32, b: &u32| b > a)];
        assert_eq!(
            reference_build(&Fan, &IDENTITY, &[], 1 << 20).state_count(),
            1651
        );
        let budgets = || {
            (1..=1652).filter(|b| b % 5 == 0 || *b < 16 || (1095..=1115).contains(b) || *b > 1640)
        };
        assert_matches_reference(&Fan, &IDENTITY, forward, budgets());
        assert_matches_reference(&Fan, &PINNED, forward, budgets().step_by(7));
    }

    /// A duplicate initial state is looked up before the budget is
    /// consulted: a one-state space fits a one-state budget, so its
    /// graph is whole and a liveness pass on it holds.
    #[test]
    fn duplicate_roots_do_not_truncate_an_exact_budget() {
        struct Dup;
        impl TransitionSystem for Dup {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![1, 1, 1]
            }
            fn successors(&self, _: &u32, _: &mut Vec<u32>) {}
        }
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        for threads in [1, 2] {
            let g = FairGraph::build_with_threads(&Dup, &CODEC, &[], 1, threads);
            assert!(!g.is_truncated(), "{threads} threads");
            assert_eq!(g.state_count(), 1);
            assert_eq!(g.initial(), [0]);
            let outcome = g.check(&crate::Property::always("anything", |_: &u32| true));
            assert_eq!(outcome.verdict, tta_modelcheck::Verdict::Holds);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_are_rejected() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let _ = FairGraph::build_with_threads(&Diamond, &CODEC, &[], 1 << 20, 0);
    }
}
