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
//! Each layer is one step on [`tta_base::map_chunks`]:
//!
//! 1. **Expand** — the layer is split into fixed-size chunks
//!    ([`Explorer::chunk_states`] states each) that workers steal off a
//!    shared counter. A worker decodes each state of its chunk from the
//!    shared, read-only arena, generates its successors, encodes and
//!    hashes each once, and resolves where it lands ([`Target`]): in the
//!    arena already, or a *proposal* — the chunk's first occurrence of a
//!    state the arena lacks. Beside that, the [`Walk`] records what it
//!    needs: the safety check the chunk's first violating proposal, the
//!    fair graph of `tta-liveness` its labelled edges. Last, the worker
//!    groups its proposals by the arena index's hash shard.
//! 2. **Merge** — a worker proved each proposal absent from the arena as
//!    it stood when the layer began, so the merge looks none of them up
//!    there. It only has to find the states that several chunks
//!    proposed, in three steps:
//!    1. per shard, in parallel: mark each proposal as its state's first
//!       occurrence in layer order, or as a repeat of an earlier one;
//!    2. on the calling thread, in layer order: give first occurrences
//!       the next ids up to the state budget and append their rows and
//!       parents to the arena, give each repeat its first occurrence's
//!       id, and let the walk adopt each chunk;
//!    3. per shard, in parallel: file the new states' `(hash, id)`
//!       entries in the arena's index.
//!
//! Chunk boundaries depend only on the layer, and step 2 alone hands out
//! ids, in layer order, so the arena's insertion sequence — ids, parents,
//! the budget cut — is the one a plain sequential BFS makes, at every
//! thread count and chunk size. The in-chunk filter keeps that: a
//! dropped duplicate follows its first occurrence in layer order. On one
//! thread the same step runs on each chunk inline, as soon as it is
//! expanded, so a layer never buffers more than one chunk, and a later
//! chunk finds in the arena what it would otherwise propose; a lone
//! chunk has no repeats, so step 1 has nothing to do. Layers with fewer
//! than [`PARALLEL_MERGE_PROPOSALS`] proposals run steps 1 and 3 on the
//! calling thread too. The initial states enter as the successors of no
//! state, through the same proposal and merge path, so a duplicate root
//! is looked up before the budget is consulted.
//!
//! The only cross-thread state is one chunk-claim counter per pool call
//! (modeled under loom in `tta-base`'s `tests/loom_merge.rs`), and in
//! step 3 one uncontended lock per index shard, which lends the shard's
//! table to the one task that fills it. Visited states live in a
//! [`Visited`] arena: one interned encoded state per distinct state,
//! parents as `u32` indices (see [`crate::codec`], [`crate::intern`] and
//! [`crate::word`]). The arena never decides an id: the merge does, in
//! layer order, so both arenas produce the same ids, parents and traces.

use crate::codec::{IdentityCodec, StateCodec};
use crate::counterexample::Trace;
use crate::hashing::fx_hash;
use crate::index::{id_of, map_shard_groups, shard_key, shard_of, Table, SHARDS};
use crate::intern::{StateArena, Visited, NO_PARENT};
use crate::stats::ExploreStats;
use crate::system::{Invariant, TransitionSystem};
use crate::word::{WordArena, WordEncoded};
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

/// Proposals a layer needs before its merge runs steps 1 and 3 on the
/// worker threads, a default chunk's worth: below it, starting the
/// threads costs about as much as the steps.
const PARALLEL_MERGE_PROPOSALS: usize = DEFAULT_CHUNK_STATES;

/// Index shards per task of the merge's parallel steps: 16 tasks to
/// steal, so a thread held up by its neighbour leaves the rest to others.
const MERGE_GROUP_SHARDS: usize = 4;

/// `Merge::first` entry of a proposal that is its state's first
/// occurrence in the layer.
const FIRST: u32 = u32::MAX;

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
    /// What a worker records for one chunk. The merge's parallel steps
    /// share the layer's chunks, records included, across its threads.
    type Chunk: Default + Send + Sync;

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
    /// states in a [`WordArena`], each as its live word prefix only:
    /// identical verdicts, ids and traces, a fraction of the resident
    /// bytes for word packings whose high words are mostly zero. (The
    /// name predates the word arena; the repository benchmark calls
    /// it.)
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
        self.check_in(system, codec, &invariant, &mut WordArena::new())
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
        let mut merge = Merge::default();

        // Layer 0: the initial states, as successors of no state.
        assert!(arena.is_empty(), "a walk starts from an empty arena");
        let initial = system.initial_states();
        let mut seed = Batch::with_capacity(initial.len());
        let mut filter = Table::with_capacity(initial.len());
        let mut targets = Vec::with_capacity(initial.len());
        seed.propose(
            &mut filter,
            codec,
            &*arena,
            &initial,
            NO_PARENT,
            &mut targets,
        );
        seed.group_by_shard();
        walk.expanded(&mut seed.record, None, &initial, &targets);
        let mut flow = merge.run(
            std::slice::from_mut(&mut seed),
            arena,
            walk,
            self.max_states,
            1,
            &mut stats,
        );
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
                    let mut batch = expand(system, codec, &*arena, &*walk, chunk_of(first));
                    let chunk = std::slice::from_mut(&mut batch);
                    flow = flow.max(merge.run(chunk, arena, walk, self.max_states, 1, &mut stats));
                    if flow == Flow::Stop {
                        break;
                    }
                }
            } else {
                // Expand stolen chunks against the read-only arena, then
                // merge the whole layer.
                let shared: &V = arena;
                let shared_walk: &W = walk;
                let mut batches = map_chunks(&starts, 1, self.threads, &|_, first: &[u32]| {
                    expand(system, codec, shared, shared_walk, chunk_of(first[0]))
                });
                flow = flow.max(merge.run(
                    &mut batches,
                    arena,
                    walk,
                    self.max_states,
                    self.threads,
                    &mut stats,
                ));
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
    encoded: E,
    parent: u32,
    /// Transitions the chunk generated up to and including `parent`'s:
    /// the walk's count if the budget drops this state and stops it.
    through: u64,
}

/// One chunk's expand output, adopted by the merge in chunk order.
struct Batch<E, K> {
    proposals: Vec<Proposal<E>>,
    /// `hashes[p]` is proposal `p`'s Fx hash.
    hashes: Vec<u64>,
    /// The proposals' indices grouped by index shard, ascending within
    /// each: shard `s` holds `by_shard[shard_starts[s]..shard_starts[s + 1]]`.
    by_shard: Vec<u32>,
    shard_starts: [u32; SHARDS + 1],
    /// The layer position of proposal 0, set by the merge.
    offset: usize,
    transitions: u64,
    record: K,
}

impl<E: Eq + Hash, K: Default> Batch<E, K> {
    /// An empty batch for a chunk of `states` states.
    fn with_capacity(states: usize) -> Self {
        Batch {
            proposals: Vec::with_capacity(states),
            hashes: Vec::with_capacity(states),
            by_shard: Vec::new(),
            shard_starts: [0; SHARDS + 1],
            offset: 0,
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
        filter: &mut Table,
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
                    let p = id_of(self.proposals.len());
                    filter.insert(hash, p);
                    self.proposals.push(Proposal {
                        encoded,
                        parent,
                        through: self.transitions,
                    });
                    self.hashes.push(hash);
                    Target::Proposed(p)
                };
            targets.push(target);
        }
    }

    /// Groups the proposals by index shard (a counting sort), for the
    /// merge's per-shard steps.
    fn group_by_shard(&mut self) {
        let mut starts = [0u32; SHARDS + 1];
        for &hash in &self.hashes {
            starts[shard_of(hash)] += 1;
        }
        let mut total = 0;
        for start in &mut starts {
            (*start, total) = (total, total + *start);
        }
        let mut next = starts;
        self.by_shard.clear();
        self.by_shard.resize(self.hashes.len(), 0);
        for (p, &hash) in self.hashes.iter().enumerate() {
            let slot = &mut next[shard_of(hash)];
            self.by_shard[*slot as usize] = p as u32;
            *slot += 1;
        }
        self.shard_starts = starts;
    }
}

impl<E, K> Batch<E, K> {
    /// The indices of the proposals in `shards`, by shard, ascending
    /// within each.
    fn in_shards(&self, shards: Range<usize>) -> &[u32] {
        &self.by_shard
            [self.shard_starts[shards.start] as usize..self.shard_starts[shards.end] as usize]
    }
}

/// The merge of one layer's chunks (see the module docs), with buffers
/// reused from layer to layer.
#[derive(Default)]
struct Merge {
    /// `ids[g]`: the id of the layer's proposal `g`, counted in layer
    /// order; `None` where the state budget dropped it.
    ids: Vec<Option<u32>>,
    /// `first[g]`: the layer position of the first occurrence of
    /// proposal `g`'s state, or [`FIRST`] where `g` is it. Empty for a
    /// lone chunk, which has no repeats.
    first: Vec<u32>,
}

impl Merge {
    /// Merges `batches`, one layer's chunks in order, into `arena`, and
    /// lets `walk` adopt each one, on up to `threads` threads. Adds the
    /// chunks' transitions to `stats`, through the first dropped
    /// proposal's state of the chunk that stops the walk.
    fn run<S, E, K, V, W>(
        &mut self,
        batches: &mut [Batch<E, K>],
        arena: &mut V,
        walk: &mut W,
        max_states: u64,
        threads: usize,
        stats: &mut ExploreStats,
    ) -> Flow
    where
        E: Eq + Sync,
        K: Default + Sync,
        V: Visited<E>,
        W: Walk<S, Chunk = K>,
    {
        let mut proposals = 0;
        for batch in batches.iter_mut() {
            batch.offset = proposals;
            proposals += batch.proposals.len();
        }
        assert!(
            proposals < FIRST as usize,
            "a layer proposed {proposals} states, more than its u32 positions hold"
        );
        let (group, threads) = if threads > 1 && proposals >= PARALLEL_MERGE_PROPOSALS {
            (MERGE_GROUP_SHARDS, threads)
        } else {
            (SHARDS, 1)
        };

        // Step 1: the repeats of states that earlier chunks proposed.
        self.first.clear();
        if batches.len() > 1 {
            self.first.resize(proposals, FIRST);
            let shared: &[Batch<E, K>] = batches;
            for repeats in map_shard_groups(group, threads, &|shards| repeats_in(shared, shards)) {
                for (at, first) in repeats {
                    self.first[at as usize] = first;
                }
            }
        }

        // Step 2: ids in layer order, and each chunk's adoption.
        self.ids.clear();
        let mut flow = Flow::Continue;
        for batch in batches.iter_mut() {
            let mut through = batch.transitions;
            // Taken, not drained: each chunk's proposals are freed as the
            // arena grows, as in a merge that consumes its chunks.
            for proposal in std::mem::take(&mut batch.proposals) {
                let id = match self.first.get(self.ids.len()) {
                    Some(&first) if first != FIRST => self.ids[first as usize],
                    _ if (arena.len() as u64) < max_states => {
                        Some(arena.append(proposal.encoded, proposal.parent))
                    }
                    _ => None,
                };
                if id.is_none() {
                    through = through.min(proposal.through);
                }
                self.ids.push(id);
            }
            let adopted = walk.adopt(std::mem::take(&mut batch.record), &self.ids[batch.offset..]);
            stats.transitions += if adopted == Flow::Stop {
                through
            } else {
                batch.transitions
            };
            flow = flow.max(adopted);
            if flow == Flow::Stop {
                break;
            }
        }

        // Step 3: index the new states, shard by shard. Chunks past a
        // stop have no ids and stay out.
        let (ids, first) = (&self.ids, &self.first);
        let shared: &[Batch<E, K>] = batches;
        arena
            .index_mut()
            .extend(group, threads, &|shard, table: &mut Table| {
                for batch in shared {
                    for &p in batch.in_shards(shard..shard + 1) {
                        let at = batch.offset + p as usize;
                        if first.get(at).is_some_and(|&f| f != FIRST) {
                            // A repeat: its first occurrence files the state.
                            continue;
                        }
                        if let Some(&Some(id)) = ids.get(at) {
                            table.insert(shard_key(batch.hashes[p as usize]), id);
                        }
                    }
                }
            });
        flow
    }
}

/// Step 1 of the merge for the index shards `shards`: every proposal of
/// `batches` in them whose state an earlier proposal in layer order
/// holds, as its layer position and that first occurrence's.
fn repeats_in<E: Eq, K>(batches: &[Batch<E, K>], shards: Range<usize>) -> Vec<(u32, u32)> {
    let members: usize = batches
        .iter()
        .map(|batch| batch.in_shards(shards.clone()).len())
        .sum();
    // First occurrences as (chunk, proposal), indexed by `seen`.
    let mut firsts: Vec<(u32, u32)> = Vec::with_capacity(members);
    let mut seen = Table::with_capacity(members);
    let mut repeats = Vec::new();
    for (c, batch) in batches.iter().enumerate() {
        for &p in batch.in_shards(shards.clone()) {
            let key = shard_key(batch.hashes[p as usize]);
            let encoded = &batch.proposals[p as usize].encoded;
            let found = seen.find(key, |m| {
                let (fc, fp) = firsts[m as usize];
                batches[fc as usize].proposals[fp as usize].encoded == *encoded
            });
            if let Some(m) = found {
                let (fc, fp) = firsts[m as usize];
                let first = batches[fc as usize].offset + fp as usize;
                repeats.push(((batch.offset + p as usize) as u32, first as u32));
            } else {
                seen.insert(key, id_of(firsts.len()));
                firsts.push((c as u32, p));
            }
        }
    }
    repeats
}

/// Expand-phase worker: the states `chunk` of the current layer,
/// batched against the shared (read-only) arena and grouped by index
/// shard. Duplicates across chunks are resolved by the merge.
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
    let mut filter = Table::with_capacity(FILTER_ENTRIES_PER_STATE * chunk.len());
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
    batch.group_by_shard();
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
    /// `WordEncoded`), used to drive the word arena in tests.
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
        T::State: Clone + Eq + Hash,
        I: Invariant<T::State>,
    {
        reference_with(explorer, system, &IdentityCodec::new(), invariant)
    }

    /// The sequential reference's outcome for `explorer`'s budgets, its
    /// states interned through `codec`.
    fn reference_with<T, C, I>(
        explorer: &Explorer,
        system: &T,
        codec: &C,
        invariant: I,
    ) -> CheckOutcome<T::State>
    where
        T: TransitionSystem,
        C: StateCodec<State = T::State>,
        I: Invariant<T::State>,
    {
        drive_sequential(
            explorer.max_states,
            explorer.max_depth,
            system,
            codec,
            &invariant,
            &mut StateArena::new(),
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

    /// A bit-packing codec must agree with the identity codec on
    /// everything observable.
    #[test]
    fn packing_codec_matches_identity() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let mut compact = Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        let identity = Explorer::new().check(&grid, invariant);
        // The two encodings hash apart, so their states spread over the
        // index shards, and size them, each in its own way.
        compact.stats.visited_bytes = identity.stats.visited_bytes;
        assert_same(&compact, &identity, "packed vs identity");
    }

    /// Word-arena storage must be observably identical to the plain
    /// arena: same verdict, same stats but the footprint, same trace
    /// states.
    #[test]
    fn word_arena_matches_plain_arena_bit_for_bit() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let plain = Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        for threads in [1, 3] {
            let words = Explorer::new()
                .threads(threads)
                .chunk_states(8)
                .check_with_delta_codec(&grid, &PackCodec, invariant);
            let (mut a, b) = (words.stats, plain.stats);
            (a.duration, a.visited_bytes) = (b.duration, b.visited_bytes);
            assert_eq!(a, b, "{threads} threads");
            assert_eq!(words.verdict, plain.verdict);
            assert_eq!(
                words.counterexample.unwrap().states(),
                plain.counterexample.as_ref().unwrap().states()
            );
        }
    }

    #[test]
    fn word_arena_respects_budgets() {
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

    /// Budget cuts landing anywhere in a layer reproduce the sequential
    /// reference's stats and traces exactly: on the grid, between a
    /// first occurrence and its in-chunk duplicates, or on either; on
    /// the fan, at every position — among the leaves (one chunk proposes
    /// them all) and among the grandchildren (first occurrences and
    /// their repeats in later chunks, through the threaded merge).
    #[test]
    #[cfg_attr(
        miri,
        ignore = "thousands of runs are too slow interpreted; threaded_merge_resolves_repeats_across_chunks covers the threads"
    )]
    fn budget_cuts_anywhere_match_the_reference() {
        let grid = Grid { bound: 1000 };
        let configs = [(1, 1024), (1, 3), (2, 2), (2, 3), (4, 4)];
        assert_cuts_match(&grid, |s: &(u32, u32)| s.0 * s.1 != 12, 1..=80, &configs);
        let configs = [(1, 256), (2, 64), (4, 100)];
        assert_cuts_match(&FAN, |s: &u32| *s != 1100 + 1 + 549, 1..=1651, &configs);
    }

    /// Every budget in `budgets`, at every `(threads, chunk states)` of
    /// `configs`, against the sequential reference.
    fn assert_cuts_match<T, I>(
        system: &T,
        invariant: I,
        budgets: std::ops::RangeInclusive<u64>,
        configs: &[(usize, usize)],
    ) where
        T: TransitionSystem + Sync,
        T::State: Clone + Eq + Hash + Send + Sync + std::fmt::Debug,
        I: Invariant<T::State> + Sync + Copy,
    {
        for max_states in budgets {
            let expected = reference(&Explorer::new().max_states(max_states), system, invariant);
            for &(threads, chunk) in configs {
                let outcome = Explorer::new()
                    .threads(threads)
                    .chunk_states(chunk)
                    .max_states(max_states)
                    .check(system, invariant);
                let at = format!("budget {max_states}, {threads} threads, chunk {chunk}");
                assert_same(&outcome, &expected, &at);
            }
        }
    }

    /// A root fanning out to `leaves` leaves, each stepping to two of
    /// `leaves / 2` grandchildren: every grandchild is proposed by leaves
    /// far apart in the layer, so by several chunks. Grandchildren step
    /// back to leaves, which the next layer must find in the index the
    /// merge filled.
    struct Fan {
        leaves: u32,
    }

    impl TransitionSystem for Fan {
        type State = u32;

        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }

        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            let (leaves, half) = (self.leaves, self.leaves / 2);
            match *s {
                0 => out.extend(1..=leaves),
                leaf if leaf <= leaves => {
                    out.extend([leaves + 1 + leaf % half, leaves + 1 + (leaf * 7) % half]);
                }
                grandchild => out.extend([0, 1 + grandchild * 3 % leaves]),
            }
        }
    }

    /// Layers big enough for the merge's parallel steps: the root's one
    /// chunk proposes 1,100 leaves, and the leaves propose their 550
    /// grandchildren 1,946 times in 128-state chunks (2,075 in 64-state
    /// ones), each chunk once at most.
    const FAN: Fan = Fan { leaves: 1100 };

    /// A state of [`Fan`] whose hash is pinned into one index shard, so
    /// a whole layer's proposals meet in one shard.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Pinned(u32);

    impl Hash for Pinned {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            // Fx hashes one `u64` word `w` to `w * SEED`, and `SEED`
            // (the hash of 1) is odd, so multiplying by its inverse
            // writes exactly the hash wanted: shard 37, the key bits
            // spread from the value.
            let seed = fx_hash(&1u64);
            let mut inverse = seed;
            for _ in 0..5 {
                inverse = inverse.wrapping_mul(2u64.wrapping_sub(seed.wrapping_mul(inverse)));
            }
            let spread = u64::from(self.0).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 6;
            state.write_u64(((37 << 58) | spread).wrapping_mul(inverse));
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

    /// Encodes [`Fan`] states as [`Pinned`].
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

    #[test]
    fn pinned_hashes_land_in_one_shard() {
        let shards: std::collections::BTreeSet<usize> =
            (0..3000).map(|s| shard_of(fx_hash(&Pinned(s)))).collect();
        assert_eq!(shards.into_iter().collect::<Vec<_>>(), [37]);
        assert!(fx_hash(&Pinned(1)) != fx_hash(&Pinned(2)));
    }

    /// The threaded merge on a layer of cross-chunk repeats, at two
    /// threads: small enough for miri, which interprets it as its check
    /// of the merge's shard steps on worker threads.
    #[test]
    fn threaded_merge_resolves_repeats_across_chunks() {
        let invariant = |s: &u32| *s != 1100 + 1 + 549;
        let explorer = Explorer::new().threads(2).chunk_states(128);
        let expected = reference(&explorer, &FAN, invariant);
        assert_eq!(expected.stats.states_explored, 1 + 1100 + 550);
        // Both the leaves' layer and the grandchildren's merge threaded.
        const { assert!(1100 >= PARALLEL_MERGE_PROPOSALS) };
        assert_same(&explorer.check(&FAN, invariant), &expected, "2 threads");
    }

    /// Layers full of repeats across chunks, with every proposal in one
    /// shard or spread over all of them, through either arena, at 1, 2
    /// and 4 threads: the sequential reference's outcome exactly.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "many interpreted runs; threaded_merge_resolves_repeats_across_chunks covers the threads"
    )]
    fn repeats_across_chunks_and_one_shard_match_the_reference() {
        let invariants: [fn(&u32) -> bool; 2] = [|_| true, |s| *s != 1100 + 1 + 549];
        for invariant in invariants {
            let spread = reference(&Explorer::new(), &FAN, invariant);
            let pinned = reference_with(&Explorer::new(), &FAN, &PinnedCodec, invariant);
            for (threads, chunk) in [(1, 64), (1, 1024), (2, 64), (2, 100), (4, 16)] {
                let explorer = Explorer::new().threads(threads).chunk_states(chunk);
                let at = format!("{threads} threads, chunk {chunk}");
                assert_same(&explorer.check(&FAN, invariant), &spread, &at);
                let plain = explorer.check_with_codec(&FAN, &PinnedCodec, invariant);
                assert_same(&plain, &pinned, &format!("one shard, {at}"));
                let mut words = explorer.check_with_delta_codec(&FAN, &PinnedCodec, invariant);
                words.stats.visited_bytes = pinned.stats.visited_bytes;
                assert_same(&words, &pinned, &format!("one shard, word arena, {at}"));
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
