//! Depth-bounded checking (a bounded-model-checking-style ablation).
//!
//! Where the BFS [`crate::Explorer`] proves `AG p` over the full reachable
//! space, the bounded checker only examines paths of length ≤ `k`. It is
//! included as the A2 ablation of DESIGN.md: it finds the paper's
//! counterexamples at small `k` with far less memory, but its "holds"
//! verdict is only valid up to the bound.

use crate::counterexample::Trace;
use crate::hashing::FxHashMap;
use crate::stats::ExploreStats;
use crate::system::{Invariant, TransitionSystem};
use std::time::Instant;

/// Verdict of a bounded check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedVerdict {
    /// No violation exists on any path of length ≤ k.
    HoldsUpToBound,
    /// A violation was found within the bound.
    Violated,
}

/// Result of [`BoundedChecker::check`].
#[derive(Debug, Clone)]
pub struct BoundedOutcome<S> {
    /// The verdict (valid only up to the configured bound).
    pub verdict: BoundedVerdict,
    /// A violating path, if found. Depth-first search does **not**
    /// guarantee minimality.
    pub counterexample: Option<Trace<S>>,
    /// Exploration statistics.
    pub stats: ExploreStats,
}

/// Iterative-deepening depth-first checker.
///
/// States are memoized with the depth budget they were last expanded
/// under, so re-visits with a smaller remaining budget are pruned.
#[derive(Debug, Clone, Copy)]
pub struct BoundedChecker {
    bound: u64,
}

impl BoundedChecker {
    /// Creates a checker examining paths of at most `bound` transitions.
    #[must_use]
    pub fn new(bound: u64) -> Self {
        BoundedChecker { bound }
    }

    /// The configured bound.
    #[must_use]
    pub fn bound(&self) -> u64 {
        self.bound
    }

    /// Checks `p` on every state reachable within the bound.
    pub fn check<T, I>(&self, system: &T, invariant: I) -> BoundedOutcome<T::State>
    where
        T: TransitionSystem,
        I: Invariant<T::State>,
    {
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let mut stats = ExploreStats::default();
        // state → largest remaining budget it has been expanded with.
        let mut best_budget: FxHashMap<T::State, u64> = FxHashMap::default();
        let mut path: Vec<T::State> = Vec::new();

        for init in system.initial_states() {
            if self.dfs(
                system,
                &invariant,
                init,
                self.bound,
                &mut best_budget,
                &mut path,
                &mut stats,
            ) {
                stats.duration = start.elapsed();
                return BoundedOutcome {
                    verdict: BoundedVerdict::Violated,
                    counterexample: Some(Trace::new(path)),
                    stats,
                };
            }
        }
        stats.duration = start.elapsed();
        BoundedOutcome {
            verdict: BoundedVerdict::HoldsUpToBound,
            counterexample: None,
            stats,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs<T, I>(
        &self,
        system: &T,
        invariant: &I,
        state: T::State,
        budget: u64,
        best_budget: &mut FxHashMap<T::State, u64>,
        path: &mut Vec<T::State>,
        stats: &mut ExploreStats,
    ) -> bool
    where
        T: TransitionSystem,
        I: Invariant<T::State>,
    {
        match best_budget.get(&state) {
            Some(prev) if *prev >= budget => return false,
            _ => {
                if best_budget.insert(state.clone(), budget).is_none() {
                    stats.states_explored += 1;
                }
            }
        }
        stats.depth_reached = stats.depth_reached.max(self.bound - budget);
        path.push(state.clone());
        if !invariant.holds(&state) {
            return true;
        }
        if budget > 0 {
            let mut succ = Vec::new();
            system.successors(&state, &mut succ);
            stats.transitions += succ.len() as u64;
            for next in succ {
                if self.dfs(
                    system,
                    invariant,
                    next,
                    budget - 1,
                    best_budget,
                    path,
                    stats,
                ) {
                    return true;
                }
            }
        }
        path.pop();
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Line(u32);

    impl TransitionSystem for Line {
        type State = u32;

        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }

        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            if *s < self.0 {
                out.push(s + 1);
            }
        }
    }

    #[test]
    fn violation_beyond_bound_is_missed() {
        let outcome = BoundedChecker::new(3).check(&Line(10), |s: &u32| *s != 5);
        assert_eq!(outcome.verdict, BoundedVerdict::HoldsUpToBound);
    }

    #[test]
    fn violation_within_bound_is_found() {
        let outcome = BoundedChecker::new(7).check(&Line(10), |s: &u32| *s != 5);
        assert_eq!(outcome.verdict, BoundedVerdict::Violated);
        let trace = outcome.counterexample.unwrap();
        assert_eq!(*trace.violating_state(), 5);
        assert_eq!(trace.states(), [0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn bound_zero_checks_initial_states_only() {
        let ok = BoundedChecker::new(0).check(&Line(10), |s: &u32| *s != 1);
        assert_eq!(ok.verdict, BoundedVerdict::HoldsUpToBound);
        assert_eq!(ok.stats.states_explored, 1);
        let bad = BoundedChecker::new(0).check(&Line(10), |s: &u32| *s != 0);
        assert_eq!(bad.verdict, BoundedVerdict::Violated);
    }

    #[test]
    fn memoization_prunes_revisits() {
        // Diamond graph: exponential paths, linear distinct states.
        struct Diamond;
        impl TransitionSystem for Diamond {
            type State = (u32, bool);
            fn initial_states(&self) -> Vec<(u32, bool)> {
                vec![(0, false)]
            }
            fn successors(&self, s: &(u32, bool), out: &mut Vec<(u32, bool)>) {
                if s.0 < 20 {
                    out.push((s.0 + 1, false));
                    out.push((s.0 + 1, true));
                }
            }
        }
        let outcome = BoundedChecker::new(20).check(&Diamond, |_: &(u32, bool)| true);
        assert_eq!(outcome.verdict, BoundedVerdict::HoldsUpToBound);
        assert!(outcome.stats.states_explored <= 41);
    }

    #[test]
    fn path_is_a_real_path() {
        let outcome = BoundedChecker::new(10).check(&Line(10), |s: &u32| *s < 8);
        let trace = outcome.counterexample.unwrap();
        for (a, b) in trace.transitions() {
            assert_eq!(*b, *a + 1);
        }
    }
}
