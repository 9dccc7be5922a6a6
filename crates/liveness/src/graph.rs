//! The fair transition graph: the reachable state space built once, in
//! interned compact form, with per-edge action labels and per-state
//! enabledness masks.
//!
//! Liveness analysis needs the *whole* reachable graph (cycles live
//! anywhere), not just a frontier, so memory discipline matters even
//! more than in the BFS checker. Graph construction reuses the safety
//! checker's interning stack — [`StateCodec`] encodings stored once in a
//! [`StateArena`], BFS parents as `u32` indices — and adds a CSR
//! adjacency with one `u32` action-label bitmask per edge. States are
//! scanned in id order, so each state's edges are appended as its CSR
//! row directly: no edge list, no sort.
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
use std::time::{Duration, Instant};
use tta_base::map_chunks;
use tta_modelcheck::hashing::fx_hash;
use tta_modelcheck::{Interned, StateArena, StateCodec, TransitionSystem, NO_PARENT};

/// Arena ids per stolen chunk in [`FairGraph::build_with_threads`].
/// Graph construction decodes, expands and re-encodes per state — far
/// more work than the safety explorer's successor step — so chunks can
/// be smaller before claim-counter contention shows.
const BUILD_CHUNK_STATES: usize = 512;

/// A worker's resolution of one generated edge target against the
/// wave-start arena snapshot. `Existing` ids are final (the arena only
/// grows); proposals are re-resolved against the live arena at merge,
/// where states inserted earlier in the same wave become visible.
enum EdgeTarget<E> {
    Existing(u32),
    Proposal { hash: u64, encoded: E },
}

/// Everything a worker computed for one scanned state: labeled edges
/// with snapshot-resolved targets, the enabledness mask over *all*
/// generated successors, and the generated-edge count.
struct NodeExpansion<E> {
    edges: Vec<(EdgeTarget<E>, u32)>,
    mask: u32,
    deadlock: bool,
    generated: u64,
}

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
/// a [`StateCodec`], labeled with weak-fairness actions.
pub struct FairGraph<'c, C: StateCodec> {
    codec: &'c C,
    arena: StateArena<C::Encoded>,
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
            .field("states", &self.state_count())
            .field("edges", &self.edge_count())
            .field("actions", &self.action_names)
            .field("truncated", &self.truncated)
            .finish_non_exhaustive()
    }
}

impl<'c, C: StateCodec> FairGraph<'c, C> {
    /// Explores `system` breadth-first and builds the labeled graph,
    /// keeping at most `max_states` distinct states.
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
        T: TransitionSystem<State = C::State>,
    {
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let (max_states, mut graph) = Self::seed(system, codec, fairness, max_states);

        // Arena ids are assigned in insertion order, so scanning them in
        // order with new states appended at the tail is exactly BFS, and
        // arena parents give shortest stems.
        let mut succs: Vec<C::State> = Vec::new();
        let mut cursor = 0u32;
        while (cursor as usize) < graph.arena.len() {
            let id = cursor;
            cursor += 1;
            let state = codec.decode(graph.arena.get(id));
            succs.clear();
            system.successors(&state, &mut succs);
            if succs.is_empty() {
                // Stutter extension: synthetic self-loop, no labels.
                graph.push_edge(id, 0);
                graph.end_row(0, true);
                continue;
            }
            let mut mask = 0u32;
            for succ in &succs {
                graph.edges_generated += 1;
                let label = edge_label(fairness, &state, succ);
                // Enabledness counts every generated edge, kept or not.
                mask |= label;
                let encoded = codec.encode(succ);
                if let Some(t) = graph.resolve(fx_hash(&encoded), encoded, id, max_states) {
                    graph.push_edge(t, label);
                }
            }
            graph.end_row(mask, false);
        }
        graph.finish(start)
    }

    /// [`Self::build`] with `threads` worker threads expanding each BFS
    /// wave in parallel.
    ///
    /// The scan processes one *wave* at a time — the arena ids appended
    /// since the previous wave. Workers steal fixed-size chunks of the
    /// wave, expand and label each state, and resolve edge targets
    /// against the wave-start arena snapshot; unresolved targets come
    /// back as proposals (hash + encoding). The merge then replays the
    /// chunks in wave order against the live arena, so inserts happen in
    /// exactly the sequential scan's order: states, ids, parents, edges,
    /// labels and the truncation flag are bit-identical to
    /// [`Self::build`] at every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero, plus everything [`Self::build`]
    /// panics on.
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
        assert!(threads >= 1, "at least one worker thread is required");
        if threads == 1 {
            return Self::build(system, codec, fairness, max_states);
        }
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let (max_states, mut graph) = Self::seed(system, codec, fairness, max_states);

        let mut wave_start = 0u32;
        while (wave_start as usize) < graph.arena.len() {
            let wave_end = graph.arena.len() as u32;
            let wave: Vec<u32> = (wave_start..wave_end).collect();
            let expansions = {
                let shared: &StateArena<C::Encoded> = &graph.arena;
                map_chunks(&wave, BUILD_CHUNK_STATES, threads, &|_, ids: &[u32]| {
                    expand_wave_chunk(system, codec, shared, fairness, ids)
                })
            };
            let mut id = wave_start;
            wave_start = wave_end;
            for node in expansions.into_iter().flatten() {
                if node.deadlock {
                    graph.push_edge(id, 0);
                    graph.end_row(0, true);
                    id += 1;
                    continue;
                }
                graph.edges_generated += node.generated;
                for (target, label) in node.edges {
                    let resolved = match target {
                        EdgeTarget::Existing(t) => Some(t),
                        EdgeTarget::Proposal { hash, encoded } => {
                            graph.resolve(hash, encoded, id, max_states)
                        }
                    };
                    if let Some(t) = resolved {
                        graph.push_edge(t, label);
                    }
                }
                graph.end_row(node.mask, false);
                id += 1;
            }
        }
        graph.finish(start)
    }

    /// Shared prologue: validate the fairness set, clamp the budget to
    /// `u32` addressing, intern the initial states and open the CSR
    /// with its leading 0 offset.
    fn seed<T>(
        system: &T,
        codec: &'c C,
        fairness: &[FairAction<C::State>],
        max_states: u64,
    ) -> (u64, Self)
    where
        T: TransitionSystem<State = C::State>,
    {
        assert!(
            fairness.len() <= MAX_FAIR_ACTIONS,
            "at most {MAX_FAIR_ACTIONS} weak-fairness constraints per graph (got {})",
            fairness.len()
        );
        let max_states = max_states.min(u64::from(u32::MAX - 1));
        let mut graph = FairGraph {
            codec,
            arena: StateArena::new(),
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
            if (graph.arena.len() as u64) >= max_states {
                graph.truncated = true;
                break;
            }
            if let Interned::New(id) = graph.arena.insert_if_absent(codec.encode(&init), NO_PARENT)
            {
                graph.initial.push(id);
            }
        }
        (max_states, graph)
    }

    /// The id of an edge target: found in the arena, or interned as a
    /// child of `parent` while the budget lasts. A target the budget
    /// drops resolves to `None` and marks the graph truncated.
    fn resolve(
        &mut self,
        hash: u64,
        encoded: C::Encoded,
        parent: u32,
        max_states: u64,
    ) -> Option<u32> {
        match self.arena.lookup_hashed(hash, &encoded) {
            Some(t) => Some(t),
            None if (self.arena.len() as u64) < max_states => {
                Some(self.arena.insert_new_hashed(hash, encoded, parent))
            }
            None => {
                self.truncated = true;
                None
            }
        }
    }

    /// Appends an edge to the CSR row of the state being scanned.
    fn push_edge(&mut self, target: u32, label: u32) {
        self.targets.push(target);
        self.labels.push(label);
    }

    /// Closes the scanned state's CSR row with its enabledness mask. A
    /// truncation-frontier state, whose every successor the budget
    /// dropped, closes an empty row.
    fn end_row(&mut self, mask: u32, deadlock: bool) {
        self.offsets.push(self.targets.len());
        self.enabled.push(mask);
        self.deadlock.push(deadlock);
    }

    /// Shared epilogue: trim the scan-grown vectors to their length, so
    /// [`Self::approx_bytes`] counts what is resident, and stamp the
    /// build time.
    fn finish(mut self, start: Instant) -> Self {
        self.offsets.shrink_to_fit();
        self.targets.shrink_to_fit();
        self.labels.shrink_to_fit();
        self.enabled.shrink_to_fit();
        self.deadlock.shrink_to_fit();
        self.build_time = start.elapsed();
        self
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
        self.codec.decode(self.arena.get(id))
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

/// Worker body for [`FairGraph::build_with_threads`]: expand and label
/// one stolen chunk of wave ids against the read-only arena snapshot.
fn expand_wave_chunk<T, C>(
    system: &T,
    codec: &C,
    snapshot: &StateArena<C::Encoded>,
    fairness: &[FairAction<C::State>],
    ids: &[u32],
) -> Vec<NodeExpansion<C::Encoded>>
where
    C: StateCodec,
    T: TransitionSystem<State = C::State>,
{
    let mut out = Vec::with_capacity(ids.len());
    let mut succs: Vec<C::State> = Vec::new();
    for &id in ids {
        let state = codec.decode(snapshot.get(id));
        succs.clear();
        system.successors(&state, &mut succs);
        if succs.is_empty() {
            out.push(NodeExpansion {
                edges: Vec::new(),
                mask: 0,
                deadlock: true,
                generated: 0,
            });
            continue;
        }
        let mut mask = 0u32;
        let mut node_edges = Vec::with_capacity(succs.len());
        for succ in &succs {
            let label = edge_label(fairness, &state, succ);
            mask |= label;
            let encoded = codec.encode(succ);
            let hash = fx_hash(&encoded);
            let target = match snapshot.lookup_hashed(hash, &encoded) {
                Some(t) => EdgeTarget::Existing(t),
                None => EdgeTarget::Proposal { hash, encoded },
            };
            node_edges.push((target, label));
        }
        out.push(NodeExpansion {
            edges: node_edges,
            mask,
            deadlock: false,
            generated: succs.len() as u64,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn assert_graphs_identical(
        seq: &FairGraph<'static, IdentityCodec<u32>>,
        par: &FairGraph<'static, IdentityCodec<u32>>,
    ) {
        assert_eq!(par.state_count(), seq.state_count());
        assert_eq!(par.edge_count(), seq.edge_count());
        assert_eq!(par.edges_generated(), seq.edges_generated());
        assert_eq!(par.is_truncated(), seq.is_truncated());
        assert_eq!(par.initial(), seq.initial());
        for v in 0..seq.state_count() as u32 {
            assert_eq!(par.state(v), seq.state(v), "state {v}");
            assert_eq!(par.arena.parent(v), seq.arena.parent(v), "parent {v}");
            assert_eq!(par.enabled_mask(v), seq.enabled_mask(v), "mask {v}");
            assert_eq!(par.is_deadlock(v), seq.is_deadlock(v), "deadlock {v}");
            assert_eq!(
                par.neighbors(v).collect::<Vec<_>>(),
                seq.neighbors(v).collect::<Vec<_>>(),
                "adjacency {v}"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn threaded_build_is_bit_identical_to_sequential() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let forward = || vec![FairAction::new("forward", |a: &u32, b: &u32| b > a)];
        let seq = FairGraph::build(&WideFan, &CODEC, &forward(), 1 << 20);
        assert!(seq.state_count() > 2 * BUILD_CHUNK_STATES, "waves split");
        for threads in [2, 4] {
            let par = FairGraph::build_with_threads(&WideFan, &CODEC, &forward(), 1 << 20, threads);
            assert_graphs_identical(&seq, &par);
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "spawns real threads over a wide graph")]
    fn threaded_build_matches_sequential_under_truncation() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let seq = FairGraph::build(&WideFan, &CODEC, &[], 700);
        assert!(seq.is_truncated());
        let par = FairGraph::build_with_threads(&WideFan, &CODEC, &[], 700, 3);
        assert_graphs_identical(&seq, &par);
    }

    #[test]
    fn one_thread_delegates_to_the_sequential_build() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let seq = build(&[], 1 << 20);
        let par = FairGraph::build_with_threads(&Diamond, &CODEC, &[], 1 << 20, 1);
        assert_eq!(par.state_count(), seq.state_count());
        assert_eq!(par.edge_count(), seq.edge_count());
    }

    #[test]
    #[should_panic(expected = "at least one worker thread")]
    fn zero_threads_are_rejected() {
        static CODEC: IdentityCodec<u32> = IdentityCodec::new();
        let _ = FairGraph::build_with_threads(&Diamond, &CODEC, &[], 1 << 20, 0);
    }
}
