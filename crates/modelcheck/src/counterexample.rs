//! Counterexample traces.

use std::fmt;

/// A path from an initial state to a property violation.
///
/// Produced by the breadth-first [`crate::Explorer`], the trace is the
/// *shortest* such path — the same guarantee SMV gives and the paper
/// relies on ("SMV produces the shortest possible trace").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace<S> {
    states: Vec<S>,
}

impl<S> Trace<S> {
    /// Builds a trace from the path of states (initial state first).
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty — a violation is always witnessed by at
    /// least one state.
    #[must_use]
    pub fn new(states: Vec<S>) -> Self {
        assert!(!states.is_empty(), "a trace contains at least one state");
        Trace { states }
    }

    /// The states along the path, initial state first, violating state
    /// last.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// Number of transitions in the trace (states − 1).
    #[must_use]
    pub fn transition_count(&self) -> usize {
        self.states.len() - 1
    }

    /// The violating (final) state.
    #[must_use]
    pub fn violating_state(&self) -> &S {
        self.states.last().expect("trace is non-empty")
    }

    /// The initial state.
    #[must_use]
    pub fn initial_state(&self) -> &S {
        &self.states[0]
    }

    /// Iterates consecutive `(from, to)` transition pairs.
    pub fn transitions(&self) -> impl Iterator<Item = (&S, &S)> {
        self.states.windows(2).map(|w| (&w[0], &w[1]))
    }

    /// Maps every state through `f`, preserving the path structure.
    #[must_use]
    pub fn map<T, F: FnMut(&S) -> T>(&self, f: F) -> Trace<T> {
        Trace {
            states: self.states.iter().map(f).collect(),
        }
    }
}

impl<S: fmt::Display> fmt::Display for Trace<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace of {} transitions:", self.transition_count())?;
        for (i, s) in self.states.iter().enumerate() {
            writeln!(f, "  {i}) {s}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_expose_path_structure() {
        let t = Trace::new(vec![10, 20, 30]);
        assert_eq!(t.states(), [10, 20, 30]);
        assert_eq!(t.transition_count(), 2);
        assert_eq!(*t.initial_state(), 10);
        assert_eq!(*t.violating_state(), 30);
    }

    #[test]
    fn transitions_pair_consecutive_states() {
        let t = Trace::new(vec![1, 2, 3]);
        let pairs: Vec<(i32, i32)> = t.transitions().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(pairs, [(1, 2), (2, 3)]);
    }

    #[test]
    fn single_state_trace_is_valid() {
        let t = Trace::new(vec![7]);
        assert_eq!(t.transition_count(), 0);
        assert_eq!(t.initial_state(), t.violating_state());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_trace_is_rejected() {
        let _: Trace<u32> = Trace::new(vec![]);
    }

    #[test]
    fn map_preserves_length() {
        let t = Trace::new(vec![1, 2, 3]).map(|s| s * 10);
        assert_eq!(t.states(), [10, 20, 30]);
    }

    #[test]
    fn display_numbers_steps() {
        let t = Trace::new(vec![5, 6]);
        let s = t.to_string();
        assert!(s.contains("0) 5") && s.contains("1) 6"));
    }
}
