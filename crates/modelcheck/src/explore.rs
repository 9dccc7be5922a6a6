//! Breadth-first explicit-state exploration: the one layer step every
//! state-space walk in the workspace runs on.
//!
//! Exploration is **layer-synchronous**: the checker fully expands BFS
//! layer `d` (every successor of every layer-`d` state is interned and
//! invariant-checked) before looking at layer `d + 1`, and when a layer
//! contains a violation the *whole layer* is still completed before the
//! run stops. Two properties follow:
//!
//! * the first violating layer is the minimal violation depth, so the
//!   counterexample is shortest — the SMV guarantee the paper relies on;
//! * `states_explored` is a deterministic function of the model alone
//!   (the set of states in layers `0..=d`), identical at every thread
//!   count.
//!
//! # The layer step
//!
//! Each layer is one two-phase step on [`tta_base::map_chunks`]:
//!
//! 1. **Expand** — the layer is split into fixed-size chunks
//!    ([`Explorer::chunk_states`] states each) that workers steal off a
//!    shared counter. A worker decodes each state of its chunk from the
//!    shared, read-only arena, generates its successors, encodes and
//!    hashes each once, and resolves where it lands ([`Target`]): in the
//!    arena already, or a *proposal* — the chunk's first occurrence of a
//!    state the arena lacks. Beside that, the [`Walk`] records what it needs:
//!    the safety check the chunk's first violating proposal, the fair
//!    graph of `tta-liveness` its labelled edges.
//! 2. **Merge** — the calling thread takes the chunks in order and
//!    resolves each proposal against the live arena (lookup, then the
//!    state budget, then insert), then hands the walk the chunk with
//!    its proposals' ids.
//!
//! Chunk boundaries depend only on the layer, and the merge interns
//! proposals in layer order, so the arena's insertion sequence — ids,
//! parents, the budget cut — is the one a plain sequential BFS makes, at
//! every thread count and chunk size. The in-chunk filter keeps that: a
//! dropped duplicate follows its first occurrence in layer order. On one
//! thread the two phases alternate per chunk, inline: each chunk merges
//! as soon as it is expanded, so a layer never buffers more than one
//! chunk, and a later chunk finds in the arena what it would otherwise
//! propose — the merge resolves either to the same id. The initial
//! states enter as the successors of no state, through the same
//! proposal and merge path, so a duplicate root is looked up before the
//! budget is consulted.
//!
//! The only cross-thread state is one chunk-claim counter per layer
//! (modeled under loom in `tta-base`'s `tests/loom_merge.rs`). Visited
//! states live in a [`Visited`] arena: one interned encoded state per
//! distinct state, parents as `u32` indices (see [`crate::codec`] and
//! [`crate::intern`]).

use crate::codec::{IdentityCodec, StateCodec};
use crate::counterexample::Trace;
use crate::delta::{DeltaArena, WordEncoded};
use crate::hashing::fx_hash;
use crate::index::VisitedIndex;
use crate::intern::{StateArena, Visited, NO_PARENT};
use crate::stats::ExploreStats;
use crate::system::{Invariant, TransitionSystem};
use std::hash::Hash;
use std::ops::Range;
use std::time::Instant;
use tta_base::map_chunks;

/// Default cap on distinct states.
pub const DEFAULT_MAX_STATES: u64 = 1 << 26;

/// Default states per work-stealing chunk: small enough to balance
/// skewed successor costs, large enough that one claim (one atomic op)
/// amortizes over ~10³ states.
const DEFAULT_CHUNK_STATES: usize = 1024;

/// Proposals per chunk state the in-chunk filter is sized for up front.
/// Past the first layers most successors are already visited or were
/// proposed by a neighbour, so a chunk rarely proposes more.
const FILTER_ENTRIES_PER_STATE: usize = 2;

/// Outcome of a check: `AG p` over all reachable states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The invariant holds on every reachable state.
    Holds,
    /// A reachable state violates the invariant (see the counterexample).
    Violated,
    /// Exploration hit a configured budget before finishing; the invariant
    /// held on every state actually visited.
    BudgetExhausted,
}

/// Result of [`Explorer::check`].
#[derive(Debug, Clone)]
pub struct CheckOutcome<S> {
    /// The verdict.
    pub verdict: Verdict,
    /// Shortest path to a violating state, if one was found.
    pub counterexample: Option<Trace<S>>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

/// Where a generated successor landed, as the worker expanding it saw
/// the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Interned already, at this id.
    Visited(u32),
    /// The chunk's proposal at this index: a state the arena lacked when
    /// the worker looked. Proposals are numbered in order of first
    /// occurrence; the merge resolves each to an id, or drops it at the
    /// state budget.
    Proposed(u32),
}

/// What a [`Walk`] tells the layer step after adopting a chunk. A later
/// variant overrides an earlier one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Flow {
    /// Keep walking.
    Continue,
    /// Complete the current layer, then stop.
    FinishLayer,
    /// Stop at once. The walk's transition count ends with the state
    /// whose successor the budget first dropped in this chunk.
    Stop,
}

/// The walk-specific half of the layer step: what a worker records for
/// each expanded state, and what the calling thread does with each
/// chunk once its proposals have ids. The safety check is one walk, the
/// fair graph of `tta-liveness` the other.
pub trait Walk<S>: Sync {
    /// What a worker records for one chunk.
    type Chunk: Default + Send;

    /// Records one expanded state — `None` for the initial states —
    /// with its successors: `succs[i]` landed at `targets[i]`. Runs on a
    /// worker thread (inline, with one thread).
    fn expanded(&self, chunk: &mut Self::Chunk, from: Option<&S>, succs: &[S], targets: &[Target]);

    /// Adopts a chunk on the calling thread, in layer order, once its
    /// proposals are resolved: `ids[p]` is proposal `p`'s id, `None`
    /// where the state budget dropped it.
    fn adopt(&mut self, chunk: Self::Chunk, ids: &[Option<u32>]) -> Flow;
}

/// How an [`Explorer::walk`] ended.
#[derive(Debug, Clone, Copy)]
pub struct Walked {
    /// States kept, transitions generated, depth, frontier peak, arena
    /// bytes and wall time. A stopped walk counts neither the layer it
    /// stopped in toward depth and frontier peak, nor transitions past
    /// the state whose successor stopped it.
    pub stats: ExploreStats,
    /// Distinct initial states kept: they hold ids `0..roots`.
    pub roots: u32,
    /// Whether the depth bound left a nonempty layer unexpanded.
    pub depth_cut: bool,
}

/// The breadth-first explicit-state model checker.
///
/// BFS guarantees that the first violation found lies at minimal depth, so
/// the produced counterexample is the shortest possible — matching the SMV
/// behavior the paper depends on. Results are bit-identical at every
/// thread count and chunk size.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    threads: usize,
    chunk_states: usize,
    max_states: u64,
    max_depth: u64,
}

impl Explorer {
    /// An explorer on one thread with a generous default budget
    /// ([`DEFAULT_MAX_STATES`], unbounded depth).
    #[must_use]
    pub fn new() -> Self {
        Explorer {
            threads: 1,
            chunk_states: DEFAULT_CHUNK_STATES,
            max_states: DEFAULT_MAX_STATES,
            max_depth: u64::MAX,
        }
    }

    /// Sets the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "at least one worker thread is required");
        self.threads = threads;
        self
    }

    /// Sets the work-stealing granularity: states per frontier chunk.
    /// Results are identical for every value — this only tunes
    /// scheduling (smaller chunks balance better, larger ones claim
    /// less).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_states == 0`.
    #[must_use]
    pub fn chunk_states(mut self, chunk_states: usize) -> Self {
        assert!(chunk_states > 0, "chunks must hold at least one state");
        self.chunk_states = chunk_states;
        self
    }

    /// Caps the number of distinct states visited.
    #[must_use]
    pub fn max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Caps the BFS depth (number of transitions from an initial state).
    /// A violation within the bound is found with a shortest trace; a
    /// clean run that leaves states unexpanded reports
    /// [`Verdict::BudgetExhausted`].
    #[must_use]
    pub fn max_depth(mut self, max_depth: u64) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Checks `AG p` with the identity codec (states interned as-is).
    ///
    /// Models with heap-carrying states should prefer
    /// [`Explorer::check_with_codec`] and a packing codec.
    pub fn check<T, I>(&self, system: &T, invariant: I) -> CheckOutcome<T::State>
    where
        T: TransitionSystem + Sync,
        T::State: Send + Sync,
        I: Invariant<T::State> + Sync,
    {
        self.check_with_codec(system, &IdentityCodec::new(), invariant)
    }

    /// Checks `AG p`, interning visited states through `codec`.
    ///
    /// Explores every reachable state of `system`, testing `invariant`
    /// on each; on violation the whole violating layer is completed and
    /// the shortest trace reconstructed by walking arena parent indices.
    pub fn check_with_codec<T, C, I>(
        &self,
        system: &T,
        codec: &C,
        invariant: I,
    ) -> CheckOutcome<T::State>
    where
        T: TransitionSystem + Sync,
        C: StateCodec<State = T::State> + Sync,
        C::Encoded: Send + Sync,
        I: Invariant<T::State> + Sync,
    {
        self.check_in(system, codec, &invariant, &mut StateArena::new())
    }

    /// Checks `AG p` like [`Self::check_with_codec`], but stores visited
    /// states as sparse xor-deltas against their BFS parents (see
    /// [`crate::delta::DeltaArena`]): identical verdicts, ids and
    /// traces, a fraction of the resident bytes for word-encodable
    /// state packings.
    pub fn check_with_delta_codec<T, C, I>(
        &self,
        system: &T,
        codec: &C,
        invariant: I,
    ) -> CheckOutcome<T::State>
    where
        T: TransitionSystem + Sync,
        C: StateCodec<State = T::State> + Sync,
        C::Encoded: WordEncoded + Send + Sync,
        I: Invariant<T::State> + Sync,
    {
        self.check_in(system, codec, &invariant, &mut DeltaArena::new())
    }

    /// Counts the reachable state space without checking a property.
    pub fn count_reachable<T>(&self, system: &T) -> ExploreStats
    where
        T: TransitionSystem + Sync,
        T::State: Send + Sync,
    {
        self.check(system, |_: &T::State| true).stats
    }

    /// Reachability query (`EF p`): finds a reachable state satisfying
    /// `predicate` and returns the shortest witness path to it, or `None`
    /// if no reachable state satisfies it within the budget.
    ///
    /// ```
    /// use tta_modelcheck::{Explorer, TransitionSystem};
    ///
    /// struct Count;
    /// impl TransitionSystem for Count {
    ///     type State = u32;
    ///     fn initial_states(&self) -> Vec<u32> { vec![0] }
    ///     fn successors(&self, s: &u32, out: &mut Vec<u32>) {
    ///         if *s < 9 { out.push(s + 1); }
    ///     }
    /// }
    ///
    /// let witness = Explorer::new().find(&Count, |s: &u32| *s == 5).unwrap();
    /// assert_eq!(witness.states(), [0, 1, 2, 3, 4, 5]);
    /// assert!(Explorer::new().find(&Count, |s: &u32| *s == 100).is_none());
    /// ```
    pub fn find<T, P>(&self, system: &T, predicate: P) -> Option<Trace<T::State>>
    where
        T: TransitionSystem + Sync,
        T::State: Send + Sync,
        P: Fn(&T::State) -> bool + Sync,
    {
        self.check(system, |s: &T::State| !predicate(s))
            .counterexample
    }

    /// The safety check: `invariant` as a walk over `arena`.
    fn check_in<T, C, I, V>(
        &self,
        system: &T,
        codec: &C,
        invariant: &I,
        arena: &mut V,
    ) -> CheckOutcome<T::State>
    where
        T: TransitionSystem + Sync,
        C: StateCodec<State = T::State> + Sync,
        C::Encoded: Send + Sync,
        I: Invariant<T::State> + Sync,
        V: Visited<C::Encoded> + Sync,
    {
        let mut safety = Safety {
            invariant,
            violation: None,
            exhausted: false,
        };
        let walked = self.walk(system, codec, arena, &mut safety);
        let verdict = match safety.violation {
            Some(_) => Verdict::Violated,
            None if safety.exhausted || walked.depth_cut => Verdict::BudgetExhausted,
            None => Verdict::Holds,
        };
        CheckOutcome {
            verdict,
            counterexample: safety.violation.map(|id| reconstruct(arena, codec, id)),
            stats: walked.stats,
        }
    }

    /// Walks `system` breadth-first into `arena`, which must start
    /// empty, one layer step at a time (see the module docs), until a
    /// layer comes out empty, the depth bound is reached, or `walk`
    /// stops it.
    ///
    /// This is the one loop that expands states and interns successors;
    /// the safety check and `tta-liveness`'s fair graph are walks on it.
    pub fn walk<T, C, V, W>(&self, system: &T, codec: &C, arena: &mut V, walk: &mut W) -> Walked
    where
        T: TransitionSystem + Sync,
        C: StateCodec<State = T::State> + Sync,
        C::Encoded: Send + Sync,
        V: Visited<C::Encoded> + Sync,
        W: Walk<T::State>,
    {
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let mut stats = ExploreStats::default();
        let mut ids = Vec::new();

        // Layer 0: the initial states, as successors of no state.
        assert!(arena.is_empty(), "a walk starts from an empty arena");
        let initial = system.initial_states();
        let mut seed = Batch::with_capacity(initial.len());
        let mut filter = VisitedIndex::with_capacity(initial.len());
        let mut targets = Vec::with_capacity(initial.len());
        seed.propose(
            &mut filter,
            codec,
            &*arena,
            &initial,
            NO_PARENT,
            &mut targets,
        );
        walk.expanded(&mut seed.record, None, &initial, &targets);
        let mut flow = seed.merge(arena, walk, &mut ids, self.max_states, &mut stats);
        let roots = arena.len() as u32;
        stats.frontier_peak = u64::from(roots);

        let mut layer = 0..roots;
        let mut depth: u64 = 0;
        let mut starts: Vec<u32> = Vec::new();
        while flow == Flow::Continue && !layer.is_empty() && depth < self.max_depth {
            starts.clear();
            starts.extend(layer.clone().step_by(self.chunk_states));
            let (end, chunk_states) = (layer.end, self.chunk_states);
            let chunk_of = |first: u32| {
                first
                    ..(first as usize)
                        .saturating_add(chunk_states)
                        .min(end as usize) as u32
            };
            if self.threads == 1 {
                // One worker: each chunk merges as soon as it is
                // expanded, so a layer buffers one chunk at a time. The
                // next chunk's worker reads the grown arena, which only
                // turns some of its proposals into finds.
                for &first in &starts {
                    let batch = expand(system, codec, &*arena, &*walk, chunk_of(first));
                    flow =
                        flow.max(batch.merge(arena, walk, &mut ids, self.max_states, &mut stats));
                    if flow == Flow::Stop {
                        break;
                    }
                }
            } else {
                // Phase 1: expand stolen chunks against the read-only
                // arena. Phase 2: adopt them in chunk order.
                let shared: &V = arena;
                let shared_walk: &W = walk;
                let batches = map_chunks(&starts, 1, self.threads, &|_, first: &[u32]| {
                    expand(system, codec, shared, shared_walk, chunk_of(first[0]))
                });
                for batch in batches {
                    flow =
                        flow.max(batch.merge(arena, walk, &mut ids, self.max_states, &mut stats));
                    if flow == Flow::Stop {
                        break;
                    }
                }
            }
            if flow == Flow::Stop {
                // The partial layer counts toward neither depth nor the
                // frontier peak.
                break;
            }
            let next = layer.end..arena.len() as u32;
            if !next.is_empty() {
                depth += 1;
            }
            stats.frontier_peak = stats.frontier_peak.max(next.len() as u64);
            layer = next;
        }

        stats.depth_reached = depth;
        stats.states_explored = arena.len() as u64;
        stats.visited_bytes = arena.approx_bytes();
        stats.duration = start.elapsed();
        Walked {
            stats,
            roots,
            depth_cut: flow == Flow::Continue && !layer.is_empty() && depth >= self.max_depth,
        }
    }
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

/// One successor surviving the expand phase's filters: everything the
/// merge needs, with the encode and hash work already done.
struct Proposal<E> {
    hash: u64,
    encoded: E,
    parent: u32,
    /// Transitions the chunk generated up to and including `parent`'s:
    /// the walk's count if the budget drops this state and stops it.
    through: u64,
}

/// One chunk's expand output, adopted by the merge in chunk order.
struct Batch<E, K> {
    proposals: Vec<Proposal<E>>,
    transitions: u64,
    record: K,
}

impl<E: Eq + Hash, K: Default> Batch<E, K> {
    /// An empty batch for a chunk of `states` states.
    fn with_capacity(states: usize) -> Self {
        Batch {
            proposals: Vec::with_capacity(states),
            transitions: 0,
            record: K::default(),
        }
    }

    /// Resolves where each of `succs` (generated by `parent`) lands,
    /// into `targets`: each is encoded and hashed once, then found among
    /// the chunk's proposals (`filter` indexes them by position), found
    /// in the arena, or proposed.
    fn propose<C, V>(
        &mut self,
        filter: &mut VisitedIndex,
        codec: &C,
        arena: &V,
        succs: &[C::State],
        parent: u32,
        targets: &mut Vec<Target>,
    ) where
        C: StateCodec<Encoded = E>,
        V: Visited<E>,
    {
        targets.clear();
        for succ in succs {
            let encoded = codec.encode(succ);
            let hash = fx_hash(&encoded);
            // The filter first: it is small enough to stay in cache.
            let proposals = &self.proposals;
            let target =
                if let Some(p) = filter.find(hash, |p| proposals[p as usize].encoded == encoded) {
                    Target::Proposed(p)
                } else if let Some(id) = arena.lookup_hashed(hash, &encoded) {
                    Target::Visited(id)
                } else {
                    let p = filter.insert(hash, self.proposals.len());
                    self.proposals.push(Proposal {
                        hash,
                        encoded,
                        parent,
                        through: self.transitions,
                    });
                    Target::Proposed(p)
                };
            targets.push(target);
        }
    }

    /// Phase 2 for one chunk: resolves its proposals in order against
    /// the live arena — lookup, then the state budget, then insert — and
    /// lets `walk` adopt it. Adds the chunk's transitions to `stats`,
    /// through the first dropped proposal's state if the walk stops.
    fn merge<S, V, W>(
        self,
        arena: &mut V,
        walk: &mut W,
        ids: &mut Vec<Option<u32>>,
        max_states: u64,
        stats: &mut ExploreStats,
    ) -> Flow
    where
        V: Visited<E>,
        W: Walk<S, Chunk = K>,
    {
        ids.clear();
        let mut through = self.transitions;
        for proposal in self.proposals {
            let id = match arena.lookup_hashed(proposal.hash, &proposal.encoded) {
                Some(id) => Some(id),
                None if (arena.len() as u64) < max_states => {
                    Some(arena.insert_new_hashed(proposal.hash, proposal.encoded, proposal.parent))
                }
                None => {
                    through = through.min(proposal.through);
                    None
                }
            };
            ids.push(id);
        }
        let flow = walk.adopt(self.record, ids);
        stats.transitions += if flow == Flow::Stop {
            through
        } else {
            self.transitions
        };
        flow
    }
}

/// Expand-phase worker: the states `chunk` of the current layer,
/// batched against the shared (read-only) arena. Duplicates across
/// chunks are resolved by the merge.
fn expand<T, C, V, W>(
    system: &T,
    codec: &C,
    arena: &V,
    walk: &W,
    chunk: Range<u32>,
) -> Batch<C::Encoded, W::Chunk>
where
    T: TransitionSystem,
    C: StateCodec<State = T::State>,
    V: Visited<C::Encoded>,
    W: Walk<T::State>,
{
    let mut batch = Batch::with_capacity(chunk.len());
    let mut filter = VisitedIndex::with_capacity(FILTER_ENTRIES_PER_STATE * chunk.len());
    let mut succs: Vec<T::State> = Vec::new();
    let mut targets = Vec::new();
    for id in chunk {
        let state = arena.with_encoded(id, |e| codec.decode(e));
        succs.clear();
        system.successors(&state, &mut succs);
        batch.transitions += succs.len() as u64;
        batch.propose(&mut filter, codec, arena, &succs, id, &mut targets);
        walk.expanded(&mut batch.record, Some(&state), &succs, &targets);
    }
    batch
}

/// The invariant check as a walk: notes each chunk's first violating
/// proposal, completes the layer it lands in, and stops at the state
/// budget.
struct Safety<'i, I> {
    invariant: &'i I,
    violation: Option<u32>,
    exhausted: bool,
}

/// A safety chunk's record.
#[derive(Default)]
struct SafetyChunk {
    /// Proposals seen so far: the index the next new one gets.
    proposed: u32,
    /// The first proposal violating the invariant.
    violating: Option<u32>,
}

impl<S, I: Invariant<S> + Sync> Walk<S> for Safety<'_, I> {
    type Chunk = SafetyChunk;

    fn expanded(&self, chunk: &mut SafetyChunk, _: Option<&S>, succs: &[S], targets: &[Target]) {
        for (succ, &target) in succs.iter().zip(targets) {
            // Proposals are numbered in order of first occurrence, so
            // each is tested once, where it first occurs.
            if target == Target::Proposed(chunk.proposed) {
                if chunk.violating.is_none() && !self.invariant.holds(succ) {
                    chunk.violating = Some(chunk.proposed);
                }
                chunk.proposed += 1;
            }
        }
    }

    fn adopt(&mut self, chunk: SafetyChunk, ids: &[Option<u32>]) -> Flow {
        // A violating proposal the budget dropped was never visited; one
        // an earlier chunk interned was reported by that chunk.
        if self.violation.is_none() {
            self.violation = chunk.violating.and_then(|p| ids[p as usize]);
        }
        if ids.contains(&None) {
            self.exhausted = true;
            Flow::Stop
        } else if self.violation.is_some() {
            // Finish the layer: layer membership (and so
            // `states_explored`) stays a function of the model.
            Flow::FinishLayer
        } else {
            Flow::Continue
        }
    }
}

/// Walks parent indices from `id` back to a root and decodes the path.
fn reconstruct<C: StateCodec, V: Visited<C::Encoded>>(
    arena: &V,
    codec: &C,
    id: u32,
) -> Trace<C::State> {
    let mut path = Vec::new();
    let mut cursor = id;
    loop {
        path.push(arena.with_encoded(cursor, |e| codec.decode(e)));
        let parent = arena.parent(cursor);
        if parent == NO_PARENT {
            break;
        }
        cursor = parent;
    }
    path.reverse();
    Trace::new(path)
}

/// The sequential BFS loop the layer step replaced, kept as the
/// independent reference the step's tests compare against: one state
/// at a time, straight into the arena. Its roots are looked up before
/// the budget is consulted, as its layer loop does.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Layer 0 of an exploration: interns every distinct initial state.
    fn seed_roots<T, C, I, V>(
        system: &T,
        codec: &C,
        invariant: &I,
        arena: &mut V,
        max_states: u64,
    ) -> (Vec<u32>, Option<u32>, bool)
    where
        T: TransitionSystem,
        C: StateCodec<State = T::State>,
        I: Invariant<T::State>,
        V: Visited<C::Encoded>,
    {
        let mut layer = Vec::new();
        let mut violation = None;
        let mut exhausted = false;
        for init in system.initial_states() {
            let encoded = codec.encode(&init);
            let hash = fx_hash(&encoded);
            if arena.lookup_hashed(hash, &encoded).is_some() {
                continue;
            }
            if arena.len() as u64 >= max_states {
                exhausted = true;
                break;
            }
            let id = arena.insert_new_hashed(hash, encoded, NO_PARENT);
            if violation.is_none() && !invariant.holds(&init) {
                violation = Some(id);
            }
            layer.push(id);
        }
        (layer, violation, exhausted)
    }

    /// The sequential BFS loop, generic over visited-set storage.
    pub(crate) fn drive_sequential<T, C, I, V>(
        max_states: u64,
        max_depth: u64,
        system: &T,
        codec: &C,
        invariant: &I,
        arena: &mut V,
    ) -> CheckOutcome<T::State>
    where
        T: TransitionSystem,
        C: StateCodec<State = T::State>,
        I: Invariant<T::State>,
        V: Visited<C::Encoded>,
    {
        let start = Instant::now();
        let mut stats = ExploreStats::default();
        let (mut layer, mut violation, mut exhausted) =
            seed_roots(system, codec, invariant, arena, max_states);
        stats.frontier_peak = layer.len() as u64;

        let mut depth: u64 = 0;
        let mut succ_buf: Vec<T::State> = Vec::new();
        'bfs: while violation.is_none() && !exhausted && !layer.is_empty() && depth < max_depth {
            let mut next_layer: Vec<u32> = Vec::new();
            for &id in &layer {
                let state = arena.with_encoded(id, |e| codec.decode(e));
                succ_buf.clear();
                system.successors(&state, &mut succ_buf);
                stats.transitions += succ_buf.len() as u64;
                for next in succ_buf.drain(..) {
                    let encoded = codec.encode(&next);
                    let hash = fx_hash(&encoded);
                    if arena.lookup_hashed(hash, &encoded).is_some() {
                        continue;
                    }
                    if arena.len() as u64 >= max_states {
                        exhausted = true;
                        break 'bfs;
                    }
                    let next_id = arena.insert_new_hashed(hash, encoded, id);
                    // Record the first violation but finish the layer:
                    // layer membership (and so `states_explored`) stays
                    // a function of the model, not of scan order.
                    if violation.is_none() && !invariant.holds(&next) {
                        violation = Some(next_id);
                    }
                    next_layer.push(next_id);
                }
            }
            if !next_layer.is_empty() {
                depth += 1;
            }
            stats.frontier_peak = stats.frontier_peak.max(next_layer.len() as u64);
            layer = next_layer;
        }

        stats.depth_reached = depth;
        stats.states_explored = arena.len() as u64;
        stats.visited_bytes = arena.approx_bytes();
        stats.duration = start.elapsed();
        match violation {
            Some(id) => CheckOutcome {
                verdict: Verdict::Violated,
                counterexample: Some(reconstruct(arena, codec, id)),
                stats,
            },
            None => CheckOutcome {
                verdict: if exhausted
                    || (!layer.is_empty() && max_depth != u64::MAX && depth >= max_depth)
                {
                    Verdict::BudgetExhausted
                } else {
                    Verdict::Holds
                },
                counterexample: None,
                stats,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::drive_sequential;
    use super::*;

    /// Grid walker: from (x, y) may increment either coordinate up to a
    /// bound — a diamond-shaped state space with known size.
    struct Grid {
        bound: u32,
    }

    impl TransitionSystem for Grid {
        type State = (u32, u32);

        fn initial_states(&self) -> Vec<(u32, u32)> {
            vec![(0, 0)]
        }

        fn successors(&self, s: &(u32, u32), out: &mut Vec<(u32, u32)>) {
            if s.0 < self.bound {
                out.push((s.0 + 1, s.1));
            }
            if s.1 < self.bound {
                out.push((s.0, s.1 + 1));
            }
        }
    }

    /// A word-packing codec for `(u32, u32)` states (u64 is
    /// `WordEncoded`), used to drive the delta arena in tests.
    #[derive(Debug)]
    struct PackCodec;
    impl StateCodec for PackCodec {
        type State = (u32, u32);
        type Encoded = u64;
        fn encode(&self, s: &(u32, u32)) -> u64 {
            (u64::from(s.0) << 32) | u64::from(s.1)
        }
        fn decode(&self, e: &u64) -> (u32, u32) {
            ((e >> 32) as u32, *e as u32)
        }
    }

    /// The sequential reference's outcome for `explorer`'s budgets.
    fn reference<T, I>(explorer: &Explorer, system: &T, invariant: I) -> CheckOutcome<T::State>
    where
        T: TransitionSystem,
        I: Invariant<T::State>,
    {
        let mut arena = StateArena::new();
        drive_sequential(
            explorer.max_states,
            explorer.max_depth,
            system,
            &IdentityCodec::new(),
            &invariant,
            &mut arena,
        )
    }

    /// Everything observable but wall time agrees.
    fn assert_same<S: PartialEq + std::fmt::Debug>(
        a: &CheckOutcome<S>,
        b: &CheckOutcome<S>,
        at: &str,
    ) {
        assert_eq!(a.verdict, b.verdict, "{at}");
        let (mut sa, mut sb) = (a.stats, b.stats);
        sa.duration = std::time::Duration::ZERO;
        sb.duration = std::time::Duration::ZERO;
        assert_eq!(sa, sb, "{at}");
        assert_eq!(
            a.counterexample.as_ref().map(Trace::states),
            b.counterexample.as_ref().map(Trace::states),
            "{at}"
        );
    }

    #[test]
    fn explores_the_whole_space() {
        let outcome = Explorer::new().check(&Grid { bound: 9 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 100);
        assert!(outcome.counterexample.is_none());
        assert!(outcome.stats.visited_bytes > 0, "memory use is reported");
    }

    #[test]
    fn finds_shortest_counterexample() {
        let outcome = Explorer::new().check(&Grid { bound: 9 }, |s: &(u32, u32)| s.0 + s.1 != 4);
        assert_eq!(outcome.verdict, Verdict::Violated);
        let trace = outcome.counterexample.unwrap();
        // Any violating state is at Manhattan distance 4; BFS must reach
        // it in exactly 4 transitions.
        assert_eq!(trace.transition_count(), 4);
        let last = trace.violating_state();
        assert_eq!(last.0 + last.1, 4);
        // The trace is a real path: consecutive states differ by one step.
        for (a, b) in trace.transitions() {
            assert_eq!((b.0 - a.0) + (b.1 - a.1), 1);
        }
    }

    /// Layer-synchronous semantics: a violated run still counts the
    /// complete violating layer, making `states_explored` deterministic
    /// (layers 0..=4 of the diamond: 1+2+3+4+5).
    #[test]
    fn violating_layer_is_completed() {
        let outcome = Explorer::new().check(&Grid { bound: 9 }, |s: &(u32, u32)| s.0 + s.1 != 4);
        assert_eq!(outcome.stats.states_explored, 15);
        assert_eq!(outcome.stats.depth_reached, 4);
    }

    #[test]
    fn violated_initial_state_gives_single_state_trace() {
        for threads in [1, 3] {
            let outcome = Explorer::new()
                .threads(threads)
                .check(&Grid { bound: 3 }, |s: &(u32, u32)| *s != (0, 0));
            assert_eq!(outcome.verdict, Verdict::Violated);
            assert_eq!(outcome.counterexample.unwrap().transition_count(), 0);
        }
    }

    #[test]
    fn state_budget_is_respected() {
        let outcome = Explorer::new()
            .max_states(10)
            .check(&Grid { bound: 100 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::BudgetExhausted);
        assert!(outcome.stats.states_explored <= 10);
    }

    #[test]
    fn depth_budget_is_respected() {
        for threads in [1, 3] {
            let outcome = Explorer::new()
                .threads(threads)
                .max_depth(3)
                .check(&Grid { bound: 100 }, |_: &(u32, u32)| true);
            assert_eq!(outcome.verdict, Verdict::BudgetExhausted);
            // Depth-3 diamond: 1 + 2 + 3 + 4 = 10 states.
            assert_eq!(outcome.stats.states_explored, 10);
        }
    }

    /// A depth bound that covers the whole space proves the property.
    #[test]
    fn depth_bound_past_the_space_holds() {
        let outcome = Explorer::new()
            .max_depth(19)
            .check(&Grid { bound: 9 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 100);
    }

    #[test]
    fn deadlocks_are_ordinary_leaves() {
        struct Dead;
        impl TransitionSystem for Dead {
            type State = u8;
            fn initial_states(&self) -> Vec<u8> {
                vec![0]
            }
            fn successors(&self, s: &u8, out: &mut Vec<u8>) {
                if *s < 3 {
                    out.push(s + 1);
                }
            }
        }
        let outcome = Explorer::new().check(&Dead, |_: &u8| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 4);
    }

    struct Dup;
    impl TransitionSystem for Dup {
        type State = u8;
        fn initial_states(&self) -> Vec<u8> {
            vec![1, 1, 1]
        }
        fn successors(&self, _: &u8, _: &mut Vec<u8>) {}
    }

    #[test]
    fn duplicate_initial_states_are_merged() {
        let outcome = Explorer::new().check(&Dup, |_: &u8| true);
        assert_eq!(outcome.stats.states_explored, 1);
    }

    /// A duplicate root is looked up before the budget is consulted: a
    /// one-state space fits a one-state budget.
    #[test]
    fn duplicate_roots_do_not_exhaust_an_exact_budget() {
        let outcome = Explorer::new().max_states(1).check(&Dup, |_: &u8| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 1);
        assert_eq!(outcome.stats.frontier_peak, 1);
    }

    #[test]
    fn count_reachable_reports_stats() {
        let stats = Explorer::new().count_reachable(&Grid { bound: 4 });
        assert_eq!(stats.states_explored, 25);
        assert!(stats.transitions >= 24);
    }

    /// A bit-packing codec must agree with the identity codec on
    /// everything observable.
    #[test]
    fn packing_codec_matches_identity() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let compact = Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        let identity = Explorer::new().check(&grid, invariant);
        assert_same(&compact, &identity, "packed vs identity");
    }

    /// Delta-arena storage must be observably identical to the plain
    /// arena: same verdict, same state count, same trace states.
    #[test]
    fn delta_codec_matches_plain_arena_bit_for_bit() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let plain = Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        for threads in [1, 3] {
            let delta = Explorer::new()
                .threads(threads)
                .chunk_states(8)
                .check_with_delta_codec(&grid, &PackCodec, invariant);
            assert_eq!(delta.verdict, plain.verdict);
            assert_eq!(delta.stats.states_explored, plain.stats.states_explored);
            assert_eq!(delta.stats.depth_reached, plain.stats.depth_reached);
            assert_eq!(
                delta.counterexample.unwrap().states(),
                plain.counterexample.as_ref().unwrap().states()
            );
        }
    }

    #[test]
    fn delta_codec_respects_budgets() {
        let exhausted = Explorer::new().max_states(10).check_with_delta_codec(
            &Grid { bound: 100 },
            &PackCodec,
            |_: &(u32, u32)| true,
        );
        assert_eq!(exhausted.verdict, Verdict::BudgetExhausted);
        assert!(exhausted.stats.states_explored <= 10);
        let depth = Explorer::new().max_depth(3).check_with_delta_codec(
            &Grid { bound: 100 },
            &PackCodec,
            |_: &(u32, u32)| true,
        );
        assert_eq!(depth.verdict, Verdict::BudgetExhausted);
        assert_eq!(depth.stats.states_explored, 10);
    }

    /// The step reproduces the sequential reference bit for bit at every
    /// thread count: verdict, every stat, and the exact counterexample
    /// states, not just its length.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "interpreted grid too slow; wide_fanout covers the threaded path"
    )]
    fn every_thread_count_matches_the_reference() {
        let grid = Grid { bound: 30 };
        type Cell = (u32, u32);
        let invariants: [fn(&Cell) -> bool; 3] =
            [|_| true, |s| s.0 + s.1 != 6, |s| s.0 * s.1 != 60];
        for invariant in invariants {
            let expected = reference(&Explorer::new(), &grid, invariant);
            for threads in [1, 2, 4] {
                let outcome = Explorer::new()
                    .threads(threads)
                    .chunk_states(16)
                    .check(&grid, invariant);
                assert_same(&outcome, &expected, &format!("{threads} threads"));
            }
        }
    }

    /// Chunk size is pure scheduling: any granularity yields the same
    /// exploration.
    #[test]
    fn chunk_size_does_not_change_results() {
        let grid = Grid { bound: 14 };
        let invariant = |s: &(u32, u32)| s.0 * s.1 != 60;
        let expected = reference(&Explorer::new(), &grid, invariant);
        for chunk in [1, 3, 7, 64, 4096] {
            for threads in [1, 3] {
                let outcome = Explorer::new()
                    .threads(threads)
                    .chunk_states(chunk)
                    .check(&grid, invariant);
                assert_same(
                    &outcome,
                    &expected,
                    &format!("chunk {chunk}, {threads} threads"),
                );
            }
        }
    }

    /// A single root fanning out to 200 leaves across 64-state chunks:
    /// with two workers the layer really crosses threads — small enough
    /// for miri, which interprets this test as its UB check of the
    /// steal/adopt handshake (shared-arena reads + codec work on worker
    /// threads, adoption on the caller).
    #[test]
    fn wide_fanout_exercises_threaded_merge() {
        struct Fan;
        impl TransitionSystem for Fan {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                if *s == 0 {
                    out.extend(1..=200);
                }
            }
        }
        let outcome = Explorer::new()
            .threads(2)
            .chunk_states(64)
            .check(&Fan, |_: &u32| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 201);
    }

    /// The in-chunk filter drops a successor the chunk already proposed
    /// and keeps the first occurrence, in order.
    #[test]
    fn expand_keeps_first_occurrences_only() {
        let mut arena: StateArena<(u32, u32)> = StateArena::new();
        for (state, parent) in [((0, 0), NO_PARENT), ((1, 0), 0), ((0, 1), 0)] {
            arena.intern(state, parent);
        }
        let safety = Safety {
            invariant: &|_: &(u32, u32)| true,
            violation: None,
            exhausted: false,
        };
        // (1, 0) and (0, 1) both reach (1, 1); (0, 0) reaches only
        // visited states.
        let out = expand(
            &Grid { bound: 5 },
            &IdentityCodec::new(),
            &arena,
            &safety,
            0..3,
        );
        let proposed: Vec<((u32, u32), u32, u64)> = out
            .proposals
            .iter()
            .map(|p| (p.encoded, p.parent, p.through))
            .collect();
        assert_eq!(
            proposed,
            [((2, 0), 1, 4), ((1, 1), 1, 4), ((0, 2), 2, 6)],
            "the duplicate (1, 1) from state 2 is dropped"
        );
        assert_eq!(out.transitions, 6);
        assert_eq!(out.record.proposed, 3);
    }

    /// Budget cuts landing anywhere in a layer — between a first
    /// occurrence and its in-chunk duplicates, or on either — reproduce
    /// the sequential reference's stats and traces exactly.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "400 runs are too slow interpreted; wide_fanout covers the threaded path"
    )]
    fn budget_cuts_anywhere_match_the_reference() {
        let grid = Grid { bound: 1000 };
        let invariant = |s: &(u32, u32)| s.0 * s.1 != 12;
        for max_states in 1..=80 {
            let expected = reference(&Explorer::new().max_states(max_states), &grid, invariant);
            for (threads, chunk) in [(1, 1024), (1, 3), (2, 2), (2, 3), (4, 4)] {
                let outcome = Explorer::new()
                    .threads(threads)
                    .chunk_states(chunk)
                    .max_states(max_states)
                    .check(&grid, invariant);
                let at = format!("budget {max_states}, {threads} threads, chunk {chunk}");
                assert_same(&outcome, &expected, &at);
            }
        }
    }

    #[test]
    fn depth_bounds_match_the_reference() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        for max_depth in 0..=19 {
            let expected = reference(&Explorer::new().max_depth(max_depth), &grid, invariant);
            for threads in [1, 2, 4] {
                let outcome = Explorer::new()
                    .threads(threads)
                    .chunk_states(4)
                    .max_depth(max_depth)
                    .check(&grid, invariant);
                assert_same(
                    &outcome,
                    &expected,
                    &format!("depth {max_depth}, {threads} threads"),
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = Explorer::new().threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_chunk_size_is_rejected() {
        let _ = Explorer::new().chunk_states(0);
    }
}
