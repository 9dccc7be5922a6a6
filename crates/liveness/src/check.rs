//! Fair-cycle detection and the per-property checking algorithms.
//!
//! Every liveness violation in a finite system is a reachable *fair
//! cycle* inside some restriction of the state graph:
//!
//! * `F p` fails iff a fair cycle of `¬p` states is reachable from a
//!   `¬p` initial state through `¬p` states only;
//! * `G (p → F q)` fails iff from some reachable `p ∧ ¬q` state a fair
//!   cycle is reachable *within* the `¬q` states;
//! * `G F p` fails iff any reachable fair cycle avoids `p` entirely
//!   (the prefix may pass through anything);
//! * `G p` is plain safety — a reachable `¬p` state — reported in lasso
//!   form by extending the offending path until a state repeats (or, on
//!   a truncated graph, until the walk reaches a state whose stored
//!   successors were all dropped by the budget, closed as a stutter
//!   cycle there).
//!
//! A cycle is **weakly fair** iff every registered action is either
//! disabled at some state of the cycle or taken by some edge of it.
//! That condition is decidable per SCC without recursion: a component
//! contains a fair cycle iff it contains a cycle at all and, for every
//! action, a member where the action is disabled *or* an internal edge
//! taking it — the witnesses can then be stitched into one closed walk
//! because the component is strongly connected. (This is exactly why
//! the engine restricts itself to weak fairness: under strong fairness
//! the SCC test loses completeness and needs recursive decomposition.)

use crate::fairness::FairAction;
use crate::graph::FairGraph;
use crate::lasso::Lasso;
use crate::property::{Property, StatePredicate};
use crate::scc::{tarjan_csr, SccDecomposition};
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use tta_modelcheck::{StateCodec, TransitionSystem, Verdict, DEFAULT_MAX_STATES};

/// Statistics from one liveness check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LivenessStats {
    /// Distinct states in the (shared) reachable graph.
    pub states: u64,
    /// Stored edges, synthetic stutter loops included.
    pub edges: u64,
    /// Deadlock states extended with stutter loops.
    pub deadlock_states: u64,
    /// Strongly connected components examined in the restriction.
    pub sccs_examined: u64,
    /// Whether the graph was truncated by the state budget.
    pub truncated: bool,
    /// Wall-clock time to build the graph (shared across checks).
    pub build_time: Duration,
    /// Wall-clock time for this property's analysis.
    pub check_time: Duration,
}

/// Outcome of checking one temporal property.
#[derive(Debug, Clone)]
pub struct LivenessOutcome<S> {
    /// `Holds`, `Violated`, or `BudgetExhausted` when the graph was
    /// truncated and no violation was found (a violation found on a
    /// truncated graph is still sound and reported as `Violated`).
    pub verdict: Verdict,
    /// The violating execution, when `verdict == Violated`.
    pub lasso: Option<Lasso<S>>,
    /// Analysis statistics.
    pub stats: LivenessStats,
}

/// One-call liveness checking: build the fair graph, check one
/// property. For several properties over one system, build a
/// [`FairGraph`] once and call [`FairGraph::check`] repeatedly.
#[derive(Debug, Clone, Copy)]
pub struct LivenessChecker {
    max_states: u64,
}

impl Default for LivenessChecker {
    fn default() -> Self {
        LivenessChecker::new()
    }
}

impl LivenessChecker {
    /// A checker with the default state budget
    /// ([`DEFAULT_MAX_STATES`]).
    #[must_use]
    pub fn new() -> Self {
        LivenessChecker {
            max_states: DEFAULT_MAX_STATES,
        }
    }

    /// Caps the number of distinct states kept in the graph.
    #[must_use]
    pub fn max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }

    /// Builds the graph and checks `property` under `fairness`.
    #[must_use]
    pub fn check<T, C>(
        &self,
        system: &T,
        codec: &C,
        fairness: &[FairAction<C::State>],
        property: &Property<C::State>,
    ) -> LivenessOutcome<C::State>
    where
        C: StateCodec,
        T: TransitionSystem<State = C::State>,
    {
        FairGraph::build(system, codec, fairness, self.max_states).check(property)
    }
}

/// Where the fair-cycle search starts and how the stem is built.
enum Sources {
    /// Search within the restriction from these states; the stem is the
    /// BFS chain to a source plus the restricted path onward.
    Restricted(Vec<u32>),
    /// Search every kept state; the stem is the plain BFS chain to the
    /// cycle entry (the prefix is unconstrained).
    Anywhere,
}

struct CycleWitness {
    /// Path from an initial state up to (excluding) the cycle entry.
    stem_ids: Vec<u32>,
    /// The cycle as a closed walk; `cycle_ids[0]` is the entry, and the
    /// closing edge `last → entry` exists in the graph — except for a
    /// single-state cycle at a truncation-frontier state, whose closing
    /// self-loop is synthetic (rendered as stutter).
    cycle_ids: Vec<u32>,
}

impl<C: StateCodec> FairGraph<'_, C> {
    /// Checks `property` over this graph's fair executions.
    #[must_use]
    pub fn check(&self, property: &Property<C::State>) -> LivenessOutcome<C::State> {
        // detlint: allow(DL02) reason=elapsed-time stats only; reported out-of-band, never part of the verification result
        let start = Instant::now();
        let (witness, sccs_examined) = match property {
            Property::Always(p) => {
                let holds = self.eval(p);
                (self.safety_witness(&holds), 0)
            }
            Property::Eventually(p) => {
                let holds = self.eval(p);
                let keep: Vec<bool> = holds.iter().map(|h| !h).collect();
                let sources: Vec<u32> = self
                    .initial()
                    .iter()
                    .copied()
                    .filter(|&s| keep[s as usize])
                    .collect();
                self.find_fair_cycle(&keep, &Sources::Restricted(sources))
            }
            Property::LeadsTo(p, q) => {
                let p_holds = self.eval(p);
                let keep: Vec<bool> = self.eval(q).iter().map(|h| !h).collect();
                let sources: Vec<u32> = (0..self.state_count() as u32)
                    .filter(|&v| p_holds[v as usize] && keep[v as usize])
                    .collect();
                self.find_fair_cycle(&keep, &Sources::Restricted(sources))
            }
            Property::AlwaysEventually(p) => {
                let keep: Vec<bool> = self.eval(p).iter().map(|h| !h).collect();
                self.find_fair_cycle(&keep, &Sources::Anywhere)
            }
        };

        let lasso = witness.map(|w| {
            // A single-state cycle is synthetic stutter when the graph
            // stores no real self-loop there: deadlock states carry the
            // marked stutter loop, truncation-frontier states store no
            // outgoing edge at all.
            let entry = w.cycle_ids[0];
            let stutter = w.cycle_ids.len() == 1
                && (self.is_deadlock(entry) || !self.neighbors(entry).any(|(t, _)| t == entry));
            Lasso::new(
                w.stem_ids.iter().map(|&v| self.state(v)).collect(),
                w.cycle_ids.iter().map(|&v| self.state(v)).collect(),
                stutter,
            )
        });
        let verdict = if lasso.is_some() {
            Verdict::Violated
        } else if self.is_truncated() {
            Verdict::BudgetExhausted
        } else {
            Verdict::Holds
        };
        LivenessOutcome {
            verdict,
            lasso,
            stats: LivenessStats {
                states: self.state_count() as u64,
                edges: self.edge_count() as u64,
                deadlock_states: (0..self.state_count() as u32)
                    .filter(|&v| self.is_deadlock(v))
                    .count() as u64,
                sccs_examined,
                truncated: self.is_truncated(),
                build_time: self.build_time(),
                check_time: start.elapsed(),
            },
        }
    }

    /// Evaluates a predicate over every kept state, by id.
    fn eval(&self, pred: &StatePredicate<C::State>) -> Vec<bool> {
        (0..self.state_count() as u32)
            .map(|v| pred.holds(&self.state(v)))
            .collect()
    }

    /// Safety violation in lasso form: the shortest path to a `¬p`
    /// state, extended greedily until a state repeats or the walk hits
    /// the truncation frontier (both bounded by `n` steps: deadlock
    /// states carry a stutter loop, so only budget-dropped successors
    /// can leave a state without a stored edge). Any extension violates
    /// `G p`; no fairness analysis is needed.
    fn safety_witness(&self, holds: &[bool]) -> Option<CycleWitness> {
        let bad = (0..self.state_count() as u32).find(|&v| !holds[v as usize])?;
        let mut path = self.stem_ids_to(bad);
        let mut position = vec![usize::MAX; self.state_count()];
        for (i, &v) in path.iter().enumerate() {
            position[v as usize] = i;
        }
        loop {
            let cur = *path.last().expect("path starts non-empty");
            let Some((next, _)) = self.neighbors(cur).next() else {
                // Truncation frontier: `cur` has successors in the
                // model, but the `max_states` budget dropped all of
                // them. The `¬p` state is already on the path, so the
                // violation stands; close the lasso as a single-state
                // stutter cycle at the frontier, like a deadlock.
                let entry = path.pop().expect("path starts non-empty");
                return Some(CycleWitness {
                    stem_ids: path,
                    cycle_ids: vec![entry],
                });
            };
            if position[next as usize] != usize::MAX {
                let at = position[next as usize];
                let cycle_ids = path.split_off(at);
                return Some(CycleWitness {
                    stem_ids: path,
                    cycle_ids,
                });
            }
            position[next as usize] = path.len();
            path.push(next);
        }
    }

    /// Finds a weakly-fair cycle within the `keep` restriction,
    /// reachable as `sources` prescribes, and assembles the full
    /// stem/cycle id witness. The second element counts the strongly
    /// connected components examined, witness or not.
    fn find_fair_cycle(&self, keep: &[bool], sources: &Sources) -> (Option<CycleWitness>, u64) {
        let n = self.state_count();
        const UNSET: u32 = u32::MAX;

        // 1. The active node set, plus restricted-BFS parents when the
        //    search is anchored at sources.
        let mut restricted_parent = vec![UNSET; n];
        let active: Vec<bool> = match sources {
            Sources::Anywhere => keep.to_vec(),
            Sources::Restricted(srcs) => {
                let mut seen = vec![false; n];
                let mut queue = VecDeque::new();
                for &s in srcs {
                    if keep[s as usize] && !seen[s as usize] {
                        seen[s as usize] = true;
                        queue.push_back(s);
                    }
                }
                while let Some(v) = queue.pop_front() {
                    for (w, _) in self.neighbors(v) {
                        if keep[w as usize] && !seen[w as usize] {
                            seen[w as usize] = true;
                            restricted_parent[w as usize] = v;
                            queue.push_back(w);
                        }
                    }
                }
                seen
            }
        };

        // 2. SCCs of the active subgraph.
        let (offsets, targets) = self.csr();
        let scc = tarjan_csr(offsets, targets, Some(&active));
        let sccs_examined = scc.count as u64;
        let (members, starts) = scc.grouped();
        let component_members = |c: usize| &members[starts[c]..starts[c + 1]];
        let all = self.all_actions();

        // 3. Weak-fairness support test per component; pick the fair
        //    component whose entry (minimal member id) is shallowest in
        //    BFS order, for short stems and determinism.
        let mut chosen: Option<(u32, usize)> = None;
        for cid in 0..scc.count {
            let members = component_members(cid);
            let mut has_self_loop = false;
            let mut internal_taken = 0u32;
            let mut disabled_somewhere = 0u32;
            for &v in members {
                disabled_somewhere |= !self.enabled_mask(v) & all;
                for (w, label) in self.neighbors(v) {
                    if active[w as usize] && scc.component[w as usize] == cid as u32 {
                        internal_taken |= label;
                        has_self_loop |= w == v;
                    }
                }
            }
            let has_cycle = members.len() > 1 || has_self_loop;
            if has_cycle && (disabled_somewhere | internal_taken) == all {
                let entry = members[0]; // members ascend: minimal id
                if chosen.is_none_or(|(best, _)| entry < best) {
                    chosen = Some((entry, cid));
                }
            }
        }
        let Some((entry, cid)) = chosen else {
            return (None, sccs_examined);
        };

        // 4. Stitch a fair closed walk through the component.
        let cycle_ids = self.fair_walk(&active, &scc, cid, entry, component_members(cid));

        // 5. Assemble the stem.
        let stem_ids = match sources {
            Sources::Anywhere => {
                let mut chain = self.stem_ids_to(entry);
                chain.pop();
                chain
            }
            Sources::Restricted(_) => {
                // entry ← restricted parents → some source, then the
                // unrestricted BFS chain from an initial state to it.
                let mut tail = vec![entry];
                let mut cur = entry;
                while restricted_parent[cur as usize] != UNSET {
                    cur = restricted_parent[cur as usize];
                    tail.push(cur);
                }
                tail.reverse();
                let mut chain = self.stem_ids_to(tail[0]);
                chain.extend_from_slice(&tail[1..]);
                chain.pop();
                chain
            }
        };

        (
            Some(CycleWitness {
                stem_ids,
                cycle_ids,
            }),
            sccs_examined,
        )
    }

    /// Builds a closed walk from `entry` through the strongly connected
    /// component `cid` that witnesses weak fairness of every action:
    /// for each action the walk contains a state where it is disabled
    /// or traverses an edge taking it.
    fn fair_walk(
        &self,
        active: &[bool],
        scc: &SccDecomposition,
        cid: usize,
        entry: u32,
        members: &[u32],
    ) -> Vec<u32> {
        let in_comp = |v: u32| active[v as usize] && scc.component[v as usize] == cid as u32;
        let mut walk = vec![entry];

        // Fairness support accumulated incrementally as the walk grows:
        // a bit is set once the walk visits a state where the action is
        // disabled or traverses an edge taking it, so no segment is
        // ever rescanned.
        let all = self.all_actions();
        let mut satisfied = !self.enabled_mask(entry) & all;
        for bit in (0..32).map(|i| 1u32 << i).filter(|b| all & b != 0) {
            if satisfied & bit != 0 {
                continue;
            }
            let cur = *walk.last().expect("walk starts at entry");
            if let Some(&w) = members.iter().find(|&&v| self.enabled_mask(v) & bit == 0) {
                // Visit a state where the action is disabled.
                let hop = self.path_in_comp(&in_comp, cur, w);
                self.extend_walk(&mut walk, &mut satisfied, hop.into_iter().skip(1));
            } else {
                // Traverse an edge that takes the action (the fairness
                // support test guarantees one exists in the component).
                let (u, v) = members
                    .iter()
                    .find_map(|&u| {
                        self.neighbors(u)
                            .find(|&(v, label)| in_comp(v) && label & bit != 0)
                            .map(|(v, _)| (u, v))
                    })
                    .expect("fair component has an internal edge taking the action");
                let hop = self.path_in_comp(&in_comp, cur, u);
                let hop = hop.into_iter().skip(1).chain(std::iter::once(v));
                self.extend_walk(&mut walk, &mut satisfied, hop);
            }
        }

        // Close the walk back at the entry.
        let cur = *walk.last().expect("walk is non-empty");
        if walk.len() == 1 {
            if self.neighbors(entry).any(|(w, _)| w == entry) {
                return walk; // real or stutter self-loop at the entry
            }
            let (first_hop, _) = self
                .neighbors(entry)
                .find(|&(w, _)| in_comp(w))
                .expect("a cyclic component has an internal successor");
            walk.push(first_hop);
            let back = self.path_in_comp(&in_comp, first_hop, entry);
            walk.extend(back.into_iter().skip(1));
            walk.pop(); // drop the repeated entry; the closing edge is implicit
        } else if cur == entry {
            walk.pop();
        } else {
            let back = self.path_in_comp(&in_comp, cur, entry);
            walk.extend(back.into_iter().skip(1));
            walk.pop();
        }
        walk
    }

    /// Appends `suffix` to the walk (each element must be a graph
    /// successor of its predecessor), folding every traversed edge's
    /// label and every visited state's disabled actions into the
    /// `satisfied` fairness-support mask.
    fn extend_walk(
        &self,
        walk: &mut Vec<u32>,
        satisfied: &mut u32,
        suffix: impl IntoIterator<Item = u32>,
    ) {
        let all = self.all_actions();
        for v in suffix {
            let prev = *walk.last().expect("walk is non-empty");
            *satisfied |= self.edge_label(prev, v) | (!self.enabled_mask(v) & all);
            walk.push(v);
        }
    }

    /// The label of the edge `u → v` (parallel edges share labels, as
    /// labels are a function of the two states).
    fn edge_label(&self, u: u32, v: u32) -> u32 {
        self.neighbors(u)
            .filter(|&(w, _)| w == v)
            .fold(0, |acc, (_, label)| acc | label)
    }

    /// Shortest path `from → to` inside one strongly connected
    /// component (both endpoints inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `to` is unreachable — impossible within an SCC.
    fn path_in_comp(&self, in_comp: &dyn Fn(u32) -> bool, from: u32, to: u32) -> Vec<u32> {
        if from == to {
            return vec![from];
        }
        let mut parent = vec![u32::MAX; self.state_count()];
        let mut seen = vec![false; self.state_count()];
        seen[from as usize] = true;
        let mut queue = VecDeque::from([from]);
        while let Some(v) = queue.pop_front() {
            for (w, _) in self.neighbors(v) {
                if !in_comp(w) || seen[w as usize] {
                    continue;
                }
                seen[w as usize] = true;
                parent[w as usize] = v;
                if w == to {
                    let mut path = vec![to];
                    let mut cur = to;
                    while cur != from {
                        cur = parent[cur as usize];
                        path.push(cur);
                    }
                    path.reverse();
                    return path;
                }
                queue.push_back(w);
            }
        }
        unreachable!("both endpoints lie in one strongly connected component")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tta_modelcheck::IdentityCodec;

    static CODEC: IdentityCodec<u32> = IdentityCodec::new();

    /// A counter that may stall: `s < 3` offers {stay, advance}; 3 loops.
    struct LazyCounter;
    impl TransitionSystem for LazyCounter {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            if *s < 3 {
                out.extend([*s, *s + 1]);
            } else {
                out.push(3);
            }
        }
    }

    fn advance() -> FairAction<u32> {
        FairAction::new("advance", |a: &u32, b: &u32| *b == a + 1)
    }

    #[test]
    fn eventually_fails_without_fairness() {
        let out = LivenessChecker::new().check(
            &LazyCounter,
            &CODEC,
            &[],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        // The unfair execution stalls forever in the initial state.
        assert!(lasso.cycle().iter().all(|s| *s < 3));
        assert!(!lasso.is_stutter());
    }

    #[test]
    fn eventually_holds_under_weak_fairness() {
        let out = LivenessChecker::new().check(
            &LazyCounter,
            &CODEC,
            &[advance()],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Holds);
        assert!(out.lasso.is_none());
        assert_eq!(out.stats.states, 4);
        // Tarjan ran over the ¬p restriction {0, 1, 2} even though no
        // fair cycle was found: the SCC count must survive a Holds.
        assert_eq!(out.stats.sccs_examined, 3);
    }

    #[test]
    fn always_violation_comes_back_as_a_lasso() {
        let out = LivenessChecker::new().check(
            &LazyCounter,
            &CODEC,
            &[advance()],
            &Property::always("below 2", |s| *s < 2),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        // BFS gives the shortest stem to the first bad state.
        assert_eq!(lasso.stem(), [0, 1]);
        assert!(lasso.states().any(|s| *s >= 2));
    }

    /// Request/serve: 0 idles or requests; 1 stalls or serves; 2 resets.
    struct ReqServe;
    impl TransitionSystem for ReqServe {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            match s {
                0 => out.extend([0, 1]),
                1 => out.extend([1, 2]),
                _ => out.push(0),
            }
        }
    }

    #[test]
    fn leads_to_depends_on_fairness_of_the_server() {
        let serve = FairAction::new("serve", |a: &u32, b: &u32| *a == 1 && *b == 2);
        let property = Property::leads_to("requested", |s| *s == 1, "served", |s| *s == 2);
        let unfair = LivenessChecker::new().check(&ReqServe, &CODEC, &[], &property);
        assert_eq!(unfair.verdict, Verdict::Violated);
        let lasso = unfair.lasso.unwrap();
        // The violating cycle stalls in the requested state; the stem
        // must actually reach a request.
        assert!(lasso.cycle().iter().all(|s| *s == 1));
        assert_eq!(lasso.stem(), [0]);

        let fair = LivenessChecker::new().check(&ReqServe, &CODEC, &[serve], &property);
        assert_eq!(fair.verdict, Verdict::Holds);
    }

    #[test]
    fn always_eventually_distinguishes_recurrent_from_escaped() {
        // 0 → {1, 3}; 1 → 2 → 0 (good ring); 3 → 3 (dead loop).
        struct Escape;
        impl TransitionSystem for Escape {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                match s {
                    0 => out.extend([1, 3]),
                    1 => out.push(2),
                    2 => out.push(0),
                    _ => out.push(3),
                }
            }
        }
        let out = LivenessChecker::new().check(
            &Escape,
            &CODEC,
            &[],
            &Property::always_eventually("at origin", |s| *s == 0),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.cycle(), [3]);
        assert_eq!(lasso.stem(), [0]);
        assert!(!lasso.is_stutter());
    }

    #[test]
    fn deadlocks_stutter_and_violate_eventually() {
        // 0 → 1, 1 deadlocks before ever reaching 2.
        struct Stops;
        impl TransitionSystem for Stops {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                if *s == 0 {
                    out.push(1);
                }
            }
        }
        let out = LivenessChecker::new().check(
            &Stops,
            &CODEC,
            &[advance()],
            &Property::eventually("reached 2", |s| *s == 2),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert!(lasso.is_stutter());
        assert_eq!(lasso.cycle(), [1]);
        assert_eq!(lasso.stem(), [0]);
        assert_eq!(out.stats.deadlock_states, 1);
    }

    /// An unbounded counter for truncation behaviour.
    struct Unbounded;
    impl TransitionSystem for Unbounded {
        type State = u32;
        fn initial_states(&self) -> Vec<u32> {
            vec![0]
        }
        fn successors(&self, s: &u32, out: &mut Vec<u32>) {
            out.push(s + 1);
        }
    }

    #[test]
    fn truncation_downgrades_holds_to_budget_exhausted() {
        let out = LivenessChecker::new().max_states(10).check(
            &Unbounded,
            &CODEC,
            &[],
            &Property::eventually("reached 1000", |s| *s == 1000),
        );
        assert_eq!(out.verdict, Verdict::BudgetExhausted);
        assert!(out.stats.truncated);
        assert!(out.lasso.is_none());
    }

    #[test]
    fn always_violation_on_truncated_graph_closes_at_the_frontier() {
        // States 0..=9 are kept; 5 violates the invariant, and the
        // greedy extension walks 5 → … → 9, whose only successor (10)
        // was dropped by the budget, so the frontier state has no
        // stored outgoing edge. The checker must return the sound
        // Violated verdict with a stutter cycle there, not panic.
        let out = LivenessChecker::new().max_states(10).check(
            &Unbounded,
            &CODEC,
            &[],
            &Property::always("below 5", |s| *s < 5),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        assert!(out.stats.truncated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.stem(), [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(lasso.cycle(), [9]);
        assert!(lasso.is_stutter());
    }

    #[test]
    fn violations_on_truncated_graphs_stay_sound() {
        // The stall cycle at 0 is inside any budget; truncation must not
        // block the (sound) violation verdict.
        let out = LivenessChecker::new().max_states(2).check(
            &LazyCounter,
            &CODEC,
            &[],
            &Property::eventually("reached 3", |s| *s == 3),
        );
        assert_eq!(out.verdict, Verdict::Violated);
        assert!(out.stats.truncated);
    }

    #[test]
    fn fair_cycle_must_witness_every_action() {
        // Two independent stalling bits: 0b00 → 0b01/0b10 → 0b11; every
        // state also self-loops. With fairness on both "set" actions the
        // only fair cycle is at 0b11 where both are disabled.
        struct TwoBits;
        impl TransitionSystem for TwoBits {
            type State = u32;
            fn initial_states(&self) -> Vec<u32> {
                vec![0]
            }
            fn successors(&self, s: &u32, out: &mut Vec<u32>) {
                out.push(*s);
                for bit in [1u32, 2] {
                    if s & bit == 0 {
                        out.push(s | bit);
                    }
                }
            }
        }
        let set_lo = FairAction::new("set lo", |a: &u32, b: &u32| a & 1 == 0 && b & 1 != 0);
        let set_hi = FairAction::new("set hi", |a: &u32, b: &u32| a & 2 == 0 && b & 2 != 0);
        let out = LivenessChecker::new().check(
            &TwoBits,
            &CODEC,
            &[set_lo, set_hi],
            &Property::always_eventually("origin", |s| *s == 0),
        );
        // 0 is never revisited; the fair stall is at 3 (both disabled).
        assert_eq!(out.verdict, Verdict::Violated);
        let lasso = out.lasso.unwrap();
        assert_eq!(lasso.cycle(), [3]);
    }
}
