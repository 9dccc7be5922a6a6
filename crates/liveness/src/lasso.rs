//! Lasso-shaped counterexamples: a finite stem plus a repeating cycle.
//!
//! A violation of a liveness property is an *infinite* execution; in a
//! finite system every such execution can be presented as a lasso —
//! `s₀ … sₖ (c₀ … cₘ)^ω` — which is exactly the shape SMV and SPIN
//! print. The API mirrors [`tta_modelcheck::Trace`] (`states`,
//! `transitions`, `map`, `Display`) so downstream narration code treats
//! both the same way.

use std::fmt;

/// A counterexample to a liveness property: after the `stem`, the
/// system repeats the `cycle` forever.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lasso<S> {
    stem: Vec<S>,
    cycle: Vec<S>,
    stutter: bool,
}

impl<S> Lasso<S> {
    /// Builds a lasso. The `stem` leads from an initial state up to —
    /// but not including — the cycle entry `cycle[0]`; consecutive
    /// states (across the stem/cycle seam too) must be transitions, and
    /// the last cycle state must have an edge back to `cycle[0]`.
    /// `stutter` marks a synthetic self-loop at a deadlock state (the
    /// stutter extension), whose closing edge is *not* a model
    /// transition.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is empty — an infinite execution repeats at
    /// least one state.
    #[must_use]
    pub fn new(stem: Vec<S>, cycle: Vec<S>, stutter: bool) -> Self {
        assert!(
            !cycle.is_empty(),
            "a lasso cycle contains at least one state"
        );
        Lasso {
            stem,
            cycle,
            stutter,
        }
    }

    /// The finite prefix, initial state first (empty when an initial
    /// state lies on the cycle).
    #[must_use]
    pub fn stem(&self) -> &[S] {
        &self.stem
    }

    /// The repeating cycle; `cycle()[0]` is the entry state reached by
    /// the stem.
    #[must_use]
    pub fn cycle(&self) -> &[S] {
        &self.cycle
    }

    /// Whether the cycle is a synthetic stutter loop at a deadlock
    /// state (the system has no real transition there; the lasso
    /// presents the maximal finite run as an infinite one).
    #[must_use]
    pub fn is_stutter(&self) -> bool {
        self.stutter
    }

    /// Transitions in the stem (= states needed to reach the cycle).
    #[must_use]
    pub fn stem_len(&self) -> usize {
        self.stem.len()
    }

    /// Transitions around the cycle (including the closing edge).
    #[must_use]
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// All distinct path states: stem first, then the cycle.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.stem.iter().chain(self.cycle.iter())
    }

    /// Consecutive `(from, to)` pairs along stem and cycle, ending with
    /// the closing edge `cycle.last() → cycle[0]`. For a stutter lasso
    /// the closing pair is the synthetic self-loop.
    pub fn transitions(&self) -> impl Iterator<Item = (&S, &S)> {
        let path: Vec<&S> = self.states().collect();
        let closing = (&self.cycle[self.cycle.len() - 1], &self.cycle[0]);
        (0..path.len().saturating_sub(1))
            .map(move |i| (path[i], path[i + 1]))
            .chain(std::iter::once(closing))
    }

    /// The execution unrolled: stem followed by `copies` repetitions of
    /// the cycle (useful for replaying a lasso through trace oracles).
    #[must_use]
    pub fn unroll(&self, copies: usize) -> Vec<S>
    where
        S: Clone,
    {
        let mut out = self.stem.clone();
        for _ in 0..copies {
            out.extend(self.cycle.iter().cloned());
        }
        out
    }

    /// Maps every state through `f`, preserving the lasso structure.
    #[must_use]
    pub fn map<T, F: FnMut(&S) -> T>(&self, mut f: F) -> Lasso<T> {
        Lasso {
            stem: self.stem.iter().map(&mut f).collect(),
            cycle: self.cycle.iter().map(&mut f).collect(),
            stutter: self.stutter,
        }
    }
}

impl<S: fmt::Display> fmt::Display for Lasso<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lasso: stem of {} transition(s), cycle of {}{}:",
            self.stem_len(),
            self.cycle_len(),
            if self.stutter { " (stutter)" } else { "" }
        )?;
        for (i, s) in self.stem.iter().enumerate() {
            writeln!(f, "  {i}) {s}")?;
        }
        writeln!(f, "  ── cycle (repeats forever) ──")?;
        for (i, s) in self.cycle.iter().enumerate() {
            writeln!(f, "  {}) {s}", self.stem.len() + i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_expose_lasso_structure() {
        let l = Lasso::new(vec![0, 1], vec![2, 3], false);
        assert_eq!(l.stem(), [0, 1]);
        assert_eq!(l.cycle(), [2, 3]);
        assert_eq!(l.stem_len(), 2);
        assert_eq!(l.cycle_len(), 2);
        assert!(!l.is_stutter());
        let states: Vec<i32> = l.states().copied().collect();
        assert_eq!(states, [0, 1, 2, 3]);
    }

    #[test]
    fn transitions_include_seam_and_closing_edge() {
        let l = Lasso::new(vec![0, 1], vec![2, 3], false);
        let pairs: Vec<(i32, i32)> = l.transitions().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(pairs, [(0, 1), (1, 2), (2, 3), (3, 2)]);
    }

    #[test]
    fn empty_stem_starts_on_the_cycle() {
        let l = Lasso::new(vec![], vec![7], true);
        assert_eq!(l.stem_len(), 0);
        let pairs: Vec<(i32, i32)> = l.transitions().map(|(a, b)| (*a, *b)).collect();
        assert_eq!(pairs, [(7, 7)]);
        assert!(l.is_stutter());
    }

    #[test]
    fn unroll_repeats_the_cycle() {
        let l = Lasso::new(vec![0], vec![1, 2], false);
        assert_eq!(l.unroll(3), [0, 1, 2, 1, 2, 1, 2]);
        assert_eq!(l.unroll(0), [0]);
    }

    #[test]
    fn map_preserves_shape() {
        let l = Lasso::new(vec![1], vec![2, 3], true).map(|s| s * 10);
        assert_eq!(l.stem(), [10]);
        assert_eq!(l.cycle(), [20, 30]);
        assert!(l.is_stutter());
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_cycle_is_rejected() {
        let _: Lasso<u32> = Lasso::new(vec![1], vec![], false);
    }

    #[test]
    fn display_marks_the_cycle() {
        let l = Lasso::new(vec![5], vec![6], false);
        let s = l.to_string();
        assert!(s.contains("0) 5"), "{s}");
        assert!(s.contains("repeats forever"), "{s}");
        assert!(s.contains("1) 6"), "{s}");
    }
}
