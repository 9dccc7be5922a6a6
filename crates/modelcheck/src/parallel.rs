//! Frontier-parallel breadth-first exploration over work-stealing
//! chunks.
//!
//! Layer-synchronous BFS with a two-phase layer step built on
//! [`tta_base::map_chunks`]:
//!
//! 1. **Expand** — the current layer is split into fixed-size chunks
//!    ([`ParallelExplorer::chunk_states`] states each) that workers
//!    *steal* off a shared atomic counter. Each worker decodes its
//!    chunk's states from the shared (read-only) arena, generates
//!    successors into a reused buffer, encodes and hashes each exactly
//!    once, drops any successor it already proposed earlier in the same
//!    chunk, pre-filters against the visited set, evaluates the
//!    invariant, and emits the survivors as a proposal batch.
//! 2. **Merge** — the calling thread adopts the proposal batches in
//!    chunk-index order and replays them into the single global arena:
//!    dedup, budget check, insert, violation recording — the exact
//!    inner loop of the sequential explorer, minus the re-encode,
//!    re-hash and invariant work the expand phase already paid for.
//!
//! Because chunk boundaries depend only on the layer (never the thread
//! count) and the merge replays proposals in layer order, the arena's
//! insertion sequence is **identical to the sequential explorer's** —
//! ids, parents, verdicts, `states_explored`, `transitions` and the
//! counterexample trace are all bit-for-bit the same at every thread
//! count and chunk size. The in-chunk filter keeps that: a dropped
//! duplicate follows its first occurrence in layer order, and by the
//! time the merge would reach it, that first occurrence is in the
//! arena — or the budget already stopped the merge at it. One thread
//! short-circuits to the sequential driver itself.
//!
//! This replaces the former sharded-visited-set design, whose per-state
//! atomic budget claims and per-shard hash sets made the parallel
//! explorer *slower* than the sequential one at every thread count: the
//! only cross-thread state left is one chunk-claim counter per layer
//! (modeled under loom in `tta-base`'s `tests/loom_merge.rs`).

use crate::codec::{IdentityCodec, StateCodec};
use crate::delta::{DeltaArena, WordEncoded};
use crate::explore::{
    drive_sequential, finish_outcome, seed_roots, CheckOutcome, DEFAULT_MAX_STATES,
};
use crate::hashing::fx_hash;
use crate::index::VisitedIndex;
use crate::intern::{StateArena, Visited};
use crate::stats::ExploreStats;
use crate::system::{Invariant, TransitionSystem};
use std::time::Instant;
use tta_base::{default_threads, map_chunks};

/// Default states per work-stealing chunk: small enough to balance
/// skewed successor costs, large enough that one claim (one atomic op)
/// amortizes over ~10³ states.
const DEFAULT_CHUNK_STATES: usize = 1024;

/// Proposals per chunk state the in-chunk filter is sized for up front.
/// Past the first layers most successors are already visited or were
/// proposed by a neighbour, so a chunk rarely proposes more.
const FILTER_ENTRIES_PER_STATE: usize = 2;

/// One successor surviving the expand phase's pre-filter: everything
/// the merge needs, with the encode/hash/invariant work already done.
struct Proposal<E> {
    hash: u64,
    encoded: E,
    /// Transitions the chunk generated up to and including `parent`'s:
    /// what the sequential explorer has counted when this successor
    /// hits the state budget.
    through: u64,
    parent: u32,
    violates: bool,
}

/// Per-chunk expand output, adopted by the merge in chunk order.
struct Expansion<E> {
    proposals: Vec<Proposal<E>>,
    transitions: u64,
}

/// A parallel explicit-state model checker.
///
/// Requires the system and its encodings to be shareable across
/// threads. Results are bit-identical to [`crate::Explorer`] for every
/// thread count and chunk size.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExplorer {
    threads: usize,
    chunk_states: usize,
    max_states: u64,
    max_depth: u64,
}

impl ParallelExplorer {
    /// Creates an explorer using the machine's available parallelism and
    /// the same default budgets as the sequential [`crate::Explorer`].
    #[must_use]
    pub fn new() -> Self {
        ParallelExplorer {
            threads: default_threads(),
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
    #[must_use]
    pub fn max_depth(mut self, max_depth: u64) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Checks `AG p` in parallel with the identity codec; same outcome
    /// as [`crate::Explorer::check`], including the counterexample.
    pub fn check<T, I>(&self, system: &T, invariant: I) -> CheckOutcome<T::State>
    where
        T: TransitionSystem + Sync,
        T::State: Send + Sync,
        I: Invariant<T::State> + Sync,
    {
        self.check_with_codec(system, &IdentityCodec::new(), invariant)
    }

    /// Checks `AG p` in parallel, interning visited states through
    /// `codec`.
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
        let mut arena: StateArena<C::Encoded> = StateArena::new();
        self.drive(system, codec, &invariant, &mut arena)
    }

    /// Checks `AG p` in parallel with delta-encoded visited-set storage
    /// (see [`crate::Explorer::check_with_delta_codec`]): identical
    /// results, a fraction of the resident bytes.
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
        let mut arena: DeltaArena<C::Encoded> = DeltaArena::new();
        self.drive(system, codec, &invariant, &mut arena)
    }

    /// The chunked layer loop, generic over visited-set storage.
    fn drive<T, C, I, V>(
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
        if self.threads <= 1 {
            // One worker: the sequential driver *is* the fast path, and
            // using it directly keeps the single-thread case from
            // paying for proposal batching it cannot amortize.
            return drive_sequential(
                self.max_states,
                self.max_depth,
                system,
                codec,
                invariant,
                arena,
            );
        }

        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let mut stats = ExploreStats::default();
        let (mut layer, mut violation, mut exhausted) =
            seed_roots(system, codec, invariant, arena, self.max_states);
        stats.frontier_peak = layer.len() as u64;

        let mut depth: u64 = 0;
        while violation.is_none() && !exhausted && !layer.is_empty() && depth < self.max_depth {
            // Phase 1: expand stolen chunks against the read-only arena.
            let shared: &V = arena;
            let expansions = map_chunks(&layer, self.chunk_states, self.threads, &|_, chunk| {
                expand_chunk(system, codec, shared, invariant, chunk)
            });

            // Phase 2: adopt in chunk order — this replays the exact
            // insertion sequence of the sequential explorer.
            let mut next_layer: Vec<u32> = Vec::new();
            'merge: for expansion in expansions {
                for proposal in expansion.proposals {
                    if arena
                        .lookup_hashed(proposal.hash, &proposal.encoded)
                        .is_some()
                    {
                        continue;
                    }
                    if arena.len() as u64 >= self.max_states {
                        // Count like the sequential explorer: through the
                        // state whose successor hit the budget.
                        stats.transitions += proposal.through;
                        exhausted = true;
                        break 'merge;
                    }
                    let id =
                        arena.insert_new_hashed(proposal.hash, proposal.encoded, proposal.parent);
                    if violation.is_none() && proposal.violates {
                        violation = Some(id);
                    }
                    next_layer.push(id);
                }
                stats.transitions += expansion.transitions;
            }
            if exhausted {
                // Mirror the sequential driver's mid-layer `break 'bfs`:
                // the partial layer counts toward neither depth nor the
                // frontier peak.
                break;
            }
            if !next_layer.is_empty() {
                depth += 1;
            }
            stats.frontier_peak = stats.frontier_peak.max(next_layer.len() as u64);
            layer = next_layer;
        }

        finish_outcome(
            stats,
            start,
            depth,
            self.max_depth,
            &layer,
            violation,
            exhausted,
            arena,
            codec,
        )
    }
}

/// Expand-phase worker: one chunk of the current layer, batched.
///
/// The successor buffer is reused across the chunk; each successor is
/// encoded and hashed exactly once, dropped if the chunk already
/// proposed it, pre-filtered against the shared visited set
/// (read-only — duplicates across chunks are resolved by the merge),
/// and invariant-checked so the merge never has to decode.
fn expand_chunk<T, C, I, V>(
    system: &T,
    codec: &C,
    arena: &V,
    invariant: &I,
    chunk: &[u32],
) -> Expansion<C::Encoded>
where
    T: TransitionSystem,
    C: StateCodec<State = T::State>,
    I: Invariant<T::State>,
    V: Visited<C::Encoded>,
{
    let mut proposals: Vec<Proposal<C::Encoded>> = Vec::with_capacity(chunk.len());
    // The chunk's first occurrences, keyed by position in `proposals`.
    // Probed before the arena: it is small enough to stay in cache.
    let mut proposed = VisitedIndex::with_capacity(FILTER_ENTRIES_PER_STATE * chunk.len());
    let mut succ_buf: Vec<T::State> = Vec::new();
    let mut transitions = 0u64;
    for &id in chunk {
        let state = arena.with_encoded(id, |e| codec.decode(e));
        succ_buf.clear();
        system.successors(&state, &mut succ_buf);
        transitions += succ_buf.len() as u64;
        for next in succ_buf.drain(..) {
            let encoded = codec.encode(&next);
            let hash = fx_hash(&encoded);
            if proposed
                .find(hash, |at| proposals[at as usize].encoded == encoded)
                .is_some()
                || arena.lookup_hashed(hash, &encoded).is_some()
            {
                continue;
            }
            proposed.insert(hash, proposals.len());
            proposals.push(Proposal {
                hash,
                encoded,
                through: transitions,
                parent: id,
                violates: !invariant.holds(&next),
            });
        }
    }
    Expansion {
        proposals,
        transitions,
    }
}

impl Default for ParallelExplorer {
    fn default() -> Self {
        ParallelExplorer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::Verdict;

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

    #[test]
    #[cfg_attr(
        miri,
        ignore = "interpreted grid too slow; wide_fanout covers the threaded path"
    )]
    fn explores_whole_space_in_parallel() {
        let outcome = ParallelExplorer::new()
            .threads(4)
            .chunk_states(64)
            .check(&Grid { bound: 30 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 31 * 31);
    }

    #[test]
    #[cfg_attr(
        miri,
        ignore = "interpreted grid too slow; wide_fanout covers the threaded path"
    )]
    fn finds_minimal_depth_counterexample() {
        let outcome = ParallelExplorer::new()
            .threads(4)
            .chunk_states(64)
            .check(&Grid { bound: 30 }, |s: &(u32, u32)| s.0 + s.1 != 6);
        assert_eq!(outcome.verdict, Verdict::Violated);
        let trace = outcome.counterexample.unwrap();
        assert_eq!(trace.transition_count(), 6);
        for (a, b) in trace.transitions() {
            assert_eq!((b.0 - a.0) + (b.1 - a.1), 1, "trace is a real path");
        }
    }

    #[test]
    fn single_thread_matches_sequential_results() {
        let parallel = ParallelExplorer::new()
            .threads(1)
            .check(&Grid { bound: 12 }, |_: &(u32, u32)| true);
        let sequential = crate::Explorer::new().check(&Grid { bound: 12 }, |_: &(u32, u32)| true);
        assert_eq!(
            parallel.stats.states_explored,
            sequential.stats.states_explored
        );
        assert_eq!(parallel.verdict, sequential.verdict);
    }

    /// Chunk-order merge determinism: every thread count reproduces the
    /// sequential explorer **bit for bit** — verdict, state count, and
    /// the exact counterexample states, not just its length.
    #[test]
    fn all_thread_counts_agree_with_sequential() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 4;
        let sequential = crate::Explorer::new().check(&grid, invariant);
        assert_eq!(sequential.stats.states_explored, 15, "layers 0..=4");
        let expected_trace = sequential.counterexample.as_ref().unwrap().states();
        for threads in 1..=4 {
            let parallel = ParallelExplorer::new()
                .threads(threads)
                .chunk_states(4)
                .check(&grid, invariant);
            assert_eq!(parallel.verdict, sequential.verdict, "{threads} threads");
            assert_eq!(
                parallel.stats.states_explored, sequential.stats.states_explored,
                "{threads} threads"
            );
            assert_eq!(
                parallel.counterexample.unwrap().states(),
                expected_trace,
                "{threads} threads"
            );
        }
    }

    /// Chunk size is pure scheduling: any granularity yields the same
    /// exploration.
    #[test]
    fn chunk_size_does_not_change_results() {
        let grid = Grid { bound: 14 };
        let invariant = |s: &(u32, u32)| s.0 * s.1 != 60;
        let baseline = crate::Explorer::new().check(&grid, invariant);
        let expected_trace = baseline.counterexample.as_ref().unwrap().states();
        for chunk in [1, 3, 7, 64, 4096] {
            let outcome = ParallelExplorer::new()
                .threads(3)
                .chunk_states(chunk)
                .check(&grid, invariant);
            assert_eq!(outcome.verdict, baseline.verdict, "chunk {chunk}");
            assert_eq!(
                outcome.stats.states_explored, baseline.stats.states_explored,
                "chunk {chunk}"
            );
            assert_eq!(
                outcome.counterexample.unwrap().states(),
                expected_trace,
                "chunk {chunk}"
            );
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
        let outcome = ParallelExplorer::new()
            .threads(2)
            .chunk_states(64)
            .check(&Fan, |_: &u32| true);
        assert_eq!(outcome.verdict, Verdict::Holds);
        assert_eq!(outcome.stats.states_explored, 201);
    }

    #[test]
    fn budget_is_respected() {
        let outcome = ParallelExplorer::new()
            .threads(2)
            .chunk_states(16)
            .max_states(50)
            .check(&Grid { bound: 1000 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::BudgetExhausted);
        assert!(outcome.stats.states_explored <= 50, "budget is strict");
    }

    #[test]
    fn budget_cut_matches_sequential_exactly() {
        let sequential = crate::Explorer::new()
            .max_states(37)
            .check(&Grid { bound: 1000 }, |_: &(u32, u32)| true);
        let parallel = ParallelExplorer::new()
            .threads(3)
            .chunk_states(4)
            .max_states(37)
            .check(&Grid { bound: 1000 }, |_: &(u32, u32)| true);
        assert_eq!(parallel.verdict, sequential.verdict);
        assert_eq!(
            parallel.stats.states_explored,
            sequential.stats.states_explored
        );
        assert_eq!(parallel.stats.depth_reached, sequential.stats.depth_reached);
        assert_eq!(parallel.stats.transitions, sequential.stats.transitions);
    }

    /// The in-chunk filter drops a successor the chunk already proposed
    /// and keeps the first occurrence, in order.
    #[test]
    fn expand_chunk_keeps_first_occurrences_only() {
        let mut arena: StateArena<(u32, u32)> = StateArena::new();
        let codec = IdentityCodec::new();
        for (state, parent) in [((0, 0), crate::NO_PARENT), ((1, 0), 0), ((0, 1), 0)] {
            arena.insert_if_absent(state, parent);
        }
        // (1, 0) and (0, 1) both reach (1, 1); (0, 0) reaches only
        // visited states.
        let out = expand_chunk(
            &Grid { bound: 5 },
            &codec,
            &arena,
            &|_: &(u32, u32)| true,
            &[0, 1, 2],
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
    }

    /// Budget cuts landing anywhere in a layer — between a first
    /// occurrence and its in-chunk duplicates, or on either — reproduce
    /// the sequential explorer's stats and traces exactly.
    #[test]
    #[cfg_attr(
        miri,
        ignore = "240 threaded runs are too slow interpreted; wide_fanout covers the threaded path"
    )]
    fn in_chunk_duplicates_straddling_the_budget_cut_match_sequential() {
        let grid = Grid { bound: 1000 };
        let invariant = |s: &(u32, u32)| s.0 * s.1 != 12;
        for max_states in 1..=80 {
            let sequential = crate::Explorer::new()
                .max_states(max_states)
                .check(&grid, invariant);
            for (threads, chunk) in [(2, 2), (2, 3), (3, 4)] {
                let parallel = ParallelExplorer::new()
                    .threads(threads)
                    .chunk_states(chunk)
                    .max_states(max_states)
                    .check(&grid, invariant);
                let at = format!("budget {max_states}, {threads} threads, chunk {chunk}");
                assert_eq!(parallel.verdict, sequential.verdict, "{at}");
                let (p, s) = (&parallel.stats, &sequential.stats);
                assert_eq!(p.states_explored, s.states_explored, "{at}");
                assert_eq!(p.transitions, s.transitions, "{at}");
                assert_eq!(p.depth_reached, s.depth_reached, "{at}");
                assert_eq!(p.frontier_peak, s.frontier_peak, "{at}");
                assert_eq!(
                    parallel.counterexample.map(|t| t.states().to_vec()),
                    sequential
                        .counterexample
                        .as_ref()
                        .map(|t| t.states().to_vec()),
                    "{at}"
                );
            }
        }
    }

    #[test]
    fn depth_budget_matches_sequential() {
        let parallel = ParallelExplorer::new()
            .threads(3)
            .max_depth(3)
            .check(&Grid { bound: 100 }, |_: &(u32, u32)| true);
        assert_eq!(parallel.verdict, Verdict::BudgetExhausted);
        assert_eq!(parallel.stats.states_explored, 10, "1 + 2 + 3 + 4 states");
    }

    #[test]
    fn violated_initial_state_short_circuits() {
        let outcome =
            ParallelExplorer::new().check(&Grid { bound: 5 }, |s: &(u32, u32)| *s != (0, 0));
        assert_eq!(outcome.verdict, Verdict::Violated);
        assert_eq!(outcome.counterexample.unwrap().transition_count(), 0);
    }

    /// Delta storage through the chunked path agrees with the plain
    /// arena and the sequential explorer.
    #[test]
    fn delta_codec_agrees_across_backends() {
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
        let grid = Grid { bound: 11 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 9;
        let sequential = crate::Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        let expected_trace = sequential.counterexample.as_ref().unwrap().states();
        for threads in [1, 3] {
            let outcome = ParallelExplorer::new()
                .threads(threads)
                .chunk_states(8)
                .check_with_delta_codec(&grid, &PackCodec, invariant);
            assert_eq!(outcome.verdict, sequential.verdict, "{threads} threads");
            assert_eq!(
                outcome.stats.states_explored, sequential.stats.states_explored,
                "{threads} threads"
            );
            assert_eq!(
                outcome.counterexample.unwrap().states(),
                expected_trace,
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_is_rejected() {
        let _ = ParallelExplorer::new().threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_chunk_size_is_rejected() {
        let _ = ParallelExplorer::new().chunk_states(0);
    }
}
