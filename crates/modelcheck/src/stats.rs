//! Exploration statistics.

use std::fmt;
use std::time::Duration;

/// Statistics collected during one exploration run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExploreStats {
    /// Distinct states visited.
    pub states_explored: u64,
    /// Transitions generated (including those leading to already-visited
    /// states).
    pub transitions: u64,
    /// Largest frontier (BFS queue) observed.
    pub frontier_peak: u64,
    /// Deepest BFS layer reached.
    pub depth_reached: u64,
    /// Approximate resident bytes of the visited-state structure
    /// (interning arena + hash index) when exploration finished.
    pub visited_bytes: u64,
    /// Wall-clock exploration time.
    pub duration: Duration,
}

impl ExploreStats {
    /// States per second, 0.0 for an instantaneous run.
    #[must_use]
    pub fn states_per_second(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs > 0.0 {
            self.states_explored as f64 / secs
        } else {
            0.0
        }
    }

    /// Average visited-set bytes per distinct state (0.0 when nothing
    /// was explored or the backend did not report memory use).
    #[must_use]
    pub fn bytes_per_state(&self) -> f64 {
        if self.states_explored > 0 {
            self.visited_bytes as f64 / self.states_explored as f64
        } else {
            0.0
        }
    }
}

impl fmt::Display for ExploreStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} states, {} transitions, depth {}, peak frontier {}, {:.3}s ({:.0} states/s)",
            self.states_explored,
            self.transitions,
            self.depth_reached,
            self.frontier_peak,
            self.duration.as_secs_f64(),
            self.states_per_second()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_guarded_against_zero_duration() {
        let stats = ExploreStats {
            states_explored: 100,
            ..Default::default()
        };
        assert_eq!(stats.states_per_second(), 0.0);
    }

    #[test]
    fn throughput_divides_by_duration() {
        let stats = ExploreStats {
            states_explored: 1000,
            duration: Duration::from_secs(2),
            ..Default::default()
        };
        assert!((stats.states_per_second() - 500.0).abs() < f64::EPSILON);
    }

    #[test]
    fn display_mentions_counts() {
        let stats = ExploreStats {
            states_explored: 7,
            transitions: 9,
            ..Default::default()
        };
        let s = stats.to_string();
        assert!(s.contains("7 states") && s.contains("9 transitions"));
    }
}
