//! TDMA transmission windows.
//!
//! A bus guardian — local or central — enforces fail-silence in the time
//! domain by opening the bus to a node only during that node's slot
//! window. Windows are measured in microticks; the window includes a
//! guard margin around the nominal slot so that correct frames with
//! benign jitter pass while off-slot transmissions are blocked.

use std::fmt;

/// A half-open time window `[open, close)` in microticks, with a tolerance
/// margin for judging near-boundary transmissions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeWindow {
    open: f64,
    close: f64,
    margin: f64,
}

impl TimeWindow {
    /// Creates a window.
    ///
    /// # Panics
    ///
    /// Panics if `close <= open` or `margin < 0`.
    #[must_use]
    pub fn new(open: f64, close: f64, margin: f64) -> Self {
        assert!(close > open, "window must have positive length");
        assert!(margin >= 0.0, "margin must be non-negative");
        TimeWindow {
            open,
            close,
            margin,
        }
    }

    /// Window opening time.
    #[must_use]
    pub fn open(&self) -> f64 {
        self.open
    }

    /// Window closing time.
    #[must_use]
    pub fn close(&self) -> f64 {
        self.close
    }

    /// Guard margin.
    #[must_use]
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Whether a transmission spanning `[start, end)` lies fully inside
    /// the window (ignoring the margin).
    #[must_use]
    pub fn contains(&self, start: f64, end: f64) -> bool {
        start >= self.open && end <= self.close
    }

    /// Classifies a transmission against the window: inside, slightly off
    /// (within the margin — the time-domain SOS region where receivers
    /// may disagree), or clearly outside.
    #[must_use]
    pub fn classify(&self, start: f64, end: f64) -> WindowVerdict {
        if self.contains(start, end) {
            WindowVerdict::Inside
        } else if start >= self.open - self.margin && end <= self.close + self.margin {
            WindowVerdict::SlightlyOff
        } else {
            WindowVerdict::Outside
        }
    }

    /// The smallest forward shift that brings `[start, end)` inside the
    /// window, if the transmission fits at all. This is the "small
    /// shifting" adjustment a [`crate::CouplerAuthority::SmallShifting`]
    /// coupler may apply.
    #[must_use]
    pub fn shift_to_fit(&self, start: f64, end: f64) -> Option<f64> {
        let len = end - start;
        if len > self.close - self.open {
            return None;
        }
        if self.contains(start, end) {
            return Some(0.0);
        }
        let shifted_start = if start < self.open {
            self.open
        } else {
            self.close - len
        };
        Some(shifted_start - start)
    }
}

impl fmt::Display for TimeWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) ±{}", self.open, self.close, self.margin)
    }
}

/// Verdict of a window check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WindowVerdict {
    /// Fully inside the nominal window.
    Inside,
    /// Within the margin: some receivers will accept it, others will not
    /// — the time-domain SOS condition.
    SlightlyOff,
    /// Clearly off slot; every correct guardian blocks it.
    Outside,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> TimeWindow {
        TimeWindow::new(100.0, 200.0, 5.0)
    }

    #[test]
    fn containment_is_exact() {
        let w = window();
        assert!(w.contains(100.0, 200.0));
        assert!(w.contains(120.0, 180.0));
        assert!(!w.contains(99.9, 150.0));
        assert!(!w.contains(150.0, 200.1));
    }

    #[test]
    fn classification_has_three_zones() {
        let w = window();
        assert_eq!(w.classify(110.0, 190.0), WindowVerdict::Inside);
        assert_eq!(w.classify(97.0, 150.0), WindowVerdict::SlightlyOff);
        assert_eq!(w.classify(150.0, 203.0), WindowVerdict::SlightlyOff);
        assert_eq!(w.classify(80.0, 150.0), WindowVerdict::Outside);
        assert_eq!(w.classify(150.0, 250.0), WindowVerdict::Outside);
    }

    #[test]
    fn shift_to_fit_computes_minimal_correction() {
        let w = window();
        assert_eq!(w.shift_to_fit(110.0, 150.0), Some(0.0));
        assert_eq!(w.shift_to_fit(95.0, 135.0), Some(5.0));
        assert_eq!(w.shift_to_fit(180.0, 220.0), Some(-20.0));
    }

    #[test]
    fn oversized_transmission_cannot_fit() {
        let w = window();
        assert_eq!(w.shift_to_fit(50.0, 260.0), None);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn inverted_window_is_rejected() {
        let _ = TimeWindow::new(10.0, 10.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_margin_is_rejected() {
        let _ = TimeWindow::new(0.0, 10.0, -1.0);
    }

    #[test]
    fn display_mentions_bounds() {
        assert_eq!(window().to_string(), "[100, 200) ±5");
    }
}
