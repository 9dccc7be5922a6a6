//! Breadth-first explicit-state exploration with invariant checking.
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
//!   (the set of states in layers `0..=d`), identical across the
//!   sequential and parallel backends and across thread counts.
//!
//! Visited states live in a [`StateArena`]: one interned encoded state
//! per distinct state, parents as `u32` indices (see [`crate::codec`]
//! and [`crate::intern`]).

use crate::codec::{IdentityCodec, StateCodec};
use crate::counterexample::Trace;
use crate::delta::{DeltaArena, WordEncoded};
use crate::hashing::fx_hash;
use crate::intern::{StateArena, Visited, NO_PARENT};
use crate::stats::ExploreStats;
use crate::system::{Invariant, TransitionSystem};
use std::time::Instant;

/// Default cap on distinct states, shared by [`Explorer`] and
/// [`crate::parallel::ParallelExplorer`] so both backends exhaust
/// budgets identically.
pub const DEFAULT_MAX_STATES: u64 = 1 << 26;

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

/// A breadth-first explicit-state model checker.
///
/// BFS guarantees that the first violation found lies at minimal depth, so
/// the produced counterexample is the shortest possible — matching the SMV
/// behavior the paper depends on.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    max_states: u64,
    max_depth: u64,
}

impl Explorer {
    /// An explorer with a generous default budget
    /// ([`DEFAULT_MAX_STATES`], unbounded depth).
    #[must_use]
    pub fn new() -> Self {
        Explorer {
            max_states: DEFAULT_MAX_STATES,
            max_depth: u64::MAX,
        }
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

    /// Checks `AG p` with the identity codec (states interned as-is).
    ///
    /// Models with heap-carrying states should prefer
    /// [`Explorer::check_with_codec`] and a packing codec.
    pub fn check<T, I>(&self, system: &T, invariant: I) -> CheckOutcome<T::State>
    where
        T: TransitionSystem,
        I: Invariant<T::State>,
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
        T: TransitionSystem,
        C: StateCodec<State = T::State>,
        I: Invariant<T::State>,
    {
        let mut arena: StateArena<C::Encoded> = StateArena::new();
        drive_sequential(
            self.max_states,
            self.max_depth,
            system,
            codec,
            &invariant,
            &mut arena,
        )
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
        T: TransitionSystem,
        C: StateCodec<State = T::State>,
        C::Encoded: WordEncoded,
        I: Invariant<T::State>,
    {
        let mut arena: DeltaArena<C::Encoded> = DeltaArena::new();
        drive_sequential(
            self.max_states,
            self.max_depth,
            system,
            codec,
            &invariant,
            &mut arena,
        )
    }

    /// Counts the reachable state space without checking a property.
    pub fn count_reachable<T: TransitionSystem>(&self, system: &T) -> ExploreStats {
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
        T: TransitionSystem,
        P: Fn(&T::State) -> bool,
    {
        self.check(system, |s: &T::State| !predicate(s))
            .counterexample
    }
}

/// Layer 0 of an exploration: interns every distinct initial state,
/// shared verbatim by the sequential and parallel drivers so their
/// arenas start bit-identical.
pub(crate) fn seed_roots<T, C, I, V>(
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
        if arena.len() as u64 >= max_states {
            exhausted = true;
            break;
        }
        let encoded = codec.encode(&init);
        let hash = fx_hash(&encoded);
        if arena.lookup_hashed(hash, &encoded).is_some() {
            continue;
        }
        let id = arena.insert_new_hashed(hash, encoded, NO_PARENT);
        if violation.is_none() && !invariant.holds(&init) {
            violation = Some(id);
        }
        layer.push(id);
    }
    (layer, violation, exhausted)
}

/// The sequential BFS driver, generic over visited-set storage: the
/// engine behind [`Explorer::check_with_codec`] and
/// [`Explorer::check_with_delta_codec`], and the single-thread path of
/// the parallel explorer (which therefore matches it bit for bit).
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
    // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
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

    finish_outcome(
        stats, start, depth, max_depth, &layer, violation, exhausted, arena, codec,
    )
}

/// Fills the trailing stats and assembles the [`CheckOutcome`]; shared
/// by the sequential and parallel drivers so verdict/budget semantics
/// cannot drift apart.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_outcome<C, V>(
    mut stats: ExploreStats,
    start: Instant,
    depth: u64,
    max_depth: u64,
    layer: &[u32],
    violation: Option<u32>,
    exhausted: bool,
    arena: &V,
    codec: &C,
) -> CheckOutcome<C::State>
where
    C: StateCodec,
    V: Visited<C::Encoded>,
{
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

/// Walks parent indices from `id` back to a root and decodes the path.
pub(crate) fn reconstruct<C: StateCodec, V: Visited<C::Encoded>>(
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

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

#[cfg(test)]
mod tests {
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
        let outcome = Explorer::new().check(&Grid { bound: 3 }, |s: &(u32, u32)| *s != (0, 0));
        assert_eq!(outcome.verdict, Verdict::Violated);
        assert_eq!(outcome.counterexample.unwrap().transition_count(), 0);
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
        let outcome = Explorer::new()
            .max_depth(3)
            .check(&Grid { bound: 100 }, |_: &(u32, u32)| true);
        assert_eq!(outcome.verdict, Verdict::BudgetExhausted);
        // Depth-3 diamond: 1 + 2 + 3 + 4 = 10 states.
        assert_eq!(outcome.stats.states_explored, 10);
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

    #[test]
    fn duplicate_initial_states_are_merged() {
        struct Dup;
        impl TransitionSystem for Dup {
            type State = u8;
            fn initial_states(&self) -> Vec<u8> {
                vec![1, 1, 1]
            }
            fn successors(&self, _: &u8, _: &mut Vec<u8>) {}
        }
        let outcome = Explorer::new().check(&Dup, |_: &u8| true);
        assert_eq!(outcome.stats.states_explored, 1);
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
        #[derive(Debug)]
        struct PairCodec;
        impl StateCodec for PairCodec {
            type State = (u32, u32);
            type Encoded = u64;
            fn encode(&self, s: &(u32, u32)) -> u64 {
                (u64::from(s.0) << 32) | u64::from(s.1)
            }
            fn decode(&self, e: &u64) -> (u32, u32) {
                ((e >> 32) as u32, *e as u32)
            }
        }
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let compact = Explorer::new().check_with_codec(&grid, &PairCodec, invariant);
        let identity = Explorer::new().check(&grid, invariant);
        assert_eq!(compact.verdict, identity.verdict);
        assert_eq!(
            compact.stats.states_explored,
            identity.stats.states_explored
        );
        assert_eq!(
            compact.counterexample.unwrap().transition_count(),
            identity.counterexample.unwrap().transition_count()
        );
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

    /// Delta-arena storage must be observably identical to the plain
    /// arena: same verdict, same state count, same trace states.
    #[test]
    fn delta_codec_matches_plain_arena_bit_for_bit() {
        let grid = Grid { bound: 9 };
        let invariant = |s: &(u32, u32)| s.0 + s.1 != 7;
        let plain = Explorer::new().check_with_codec(&grid, &PackCodec, invariant);
        let delta = Explorer::new().check_with_delta_codec(&grid, &PackCodec, invariant);
        assert_eq!(delta.verdict, plain.verdict);
        assert_eq!(delta.stats.states_explored, plain.stats.states_explored);
        assert_eq!(delta.stats.depth_reached, plain.stats.depth_reached);
        assert_eq!(
            delta.counterexample.unwrap().states(),
            plain.counterexample.unwrap().states()
        );
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
}
