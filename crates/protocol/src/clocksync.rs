//! Distributed clock synchronization (fault-tolerant average).
//!
//! TTP/C synchronizes node clocks by having every receiver measure the
//! deviation between a frame's *expected* and *actual* arrival time, then
//! periodically applying a fault-tolerant average (FTA) of the collected
//! measurements: the `k` largest and `k` smallest deviations are discarded
//! and the rest averaged. The simulator uses this service to model the
//! clock-rate differences (ρ) that drive the paper's Section 6 buffer
//! analysis; the formal model abstracts it away (one transition = one
//! slot).

use std::fmt;

/// Accumulates arrival-time deviation measurements over one round and
/// computes the FTA correction.
///
/// Deviations are in microticks (sub-slot clock units); positive values
/// mean the observed frame arrived later than expected (the local clock is
/// fast).
///
/// # Example
///
/// ```
/// use tta_protocol::clocksync::ClockSync;
///
/// let mut sync = ClockSync::new(1);
/// for d in [4, -2, 100, -90, 3] {
///     sync.record(d);
/// }
/// // 100 and -90 are discarded as the single largest/smallest outliers.
/// assert_eq!(sync.correction(), Some(1)); // avg(4, -2, 3) rounded toward zero
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockSync {
    discard: usize,
    deviations: Vec<i32>,
}

impl ClockSync {
    /// Creates a synchronizer that discards the `discard` largest and
    /// `discard` smallest measurements (the FTA's fault tolerance degree;
    /// `k = 1` tolerates one arbitrarily faulty clock).
    #[must_use]
    pub fn new(discard: usize) -> Self {
        ClockSync {
            discard,
            deviations: Vec::new(),
        }
    }

    /// Records one deviation measurement.
    pub fn record(&mut self, deviation_microticks: i32) {
        self.deviations.push(deviation_microticks);
    }

    /// Number of measurements collected so far.
    #[must_use]
    pub fn sample_count(&self) -> usize {
        self.deviations.len()
    }

    /// The FTA correction: average of the measurements after discarding
    /// the `k` extremes on each side, rounded toward zero. `None` if not
    /// enough measurements survive the discard.
    #[must_use]
    pub fn correction(&self) -> Option<i32> {
        let surviving = self.deviations.len().checked_sub(2 * self.discard)?;
        if surviving == 0 {
            return None;
        }
        let mut sorted = self.deviations.clone();
        sorted.sort_unstable();
        let kept = &sorted[self.discard..self.discard + surviving];
        let sum: i64 = kept.iter().map(|d| i64::from(*d)).sum();
        Some((sum / kept.len() as i64) as i32)
    }

    /// Applies the correction and clears the window for the next round.
    /// Returns the correction applied (0 if none could be computed).
    pub fn resynchronize(&mut self) -> i32 {
        let correction = self.correction().unwrap_or(0);
        self.deviations.clear();
        correction
    }
}

impl fmt::Display for ClockSync {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ClockSync(k={}, {} samples)",
            self.discard,
            self.deviations.len()
        )
    }
}

/// A drifting local clock, parameterized by a rate deviation in parts per
/// million. Used by the simulator to model the ρ of Section 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftingClock {
    rate_ppm: f64,
    local_microticks: f64,
}

impl DriftingClock {
    /// Creates a clock deviating from nominal by `rate_ppm` parts per
    /// million (positive = fast).
    #[must_use]
    pub fn new(rate_ppm: f64) -> Self {
        DriftingClock {
            rate_ppm,
            local_microticks: 0.0,
        }
    }

    /// The configured rate deviation.
    #[must_use]
    pub fn rate_ppm(&self) -> f64 {
        self.rate_ppm
    }

    /// Advances the clock by `nominal` microticks of true time.
    pub fn advance(&mut self, nominal: f64) {
        self.local_microticks += nominal * (1.0 + self.rate_ppm * 1e-6);
    }

    /// Local time in microticks.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.local_microticks
    }

    /// Applies a synchronization correction (subtracting the measured
    /// deviation).
    pub fn correct(&mut self, correction_microticks: i32) {
        self.local_microticks -= f64::from(correction_microticks);
    }

    /// Offset from true time after `nominal` microticks of true time have
    /// elapsed since the last correction, assuming the clock started
    /// aligned.
    #[must_use]
    pub fn offset_from(&self, true_microticks: f64) -> f64 {
        self.local_microticks - true_microticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fta_discards_extremes() {
        let mut s = ClockSync::new(1);
        for d in [10, -10, 1000, -1000] {
            s.record(d);
        }
        assert_eq!(s.correction(), Some(0));
    }

    #[test]
    fn fta_needs_enough_samples() {
        let mut s = ClockSync::new(2);
        s.record(5);
        s.record(5);
        s.record(5);
        s.record(5);
        assert_eq!(s.correction(), None);
        s.record(5);
        assert_eq!(s.correction(), Some(5));
    }

    #[test]
    fn zero_discard_is_plain_average() {
        let mut s = ClockSync::new(0);
        for d in [2, 4, 6] {
            s.record(d);
        }
        assert_eq!(s.correction(), Some(4));
    }

    #[test]
    fn resynchronize_clears_the_window() {
        let mut s = ClockSync::new(0);
        s.record(8);
        assert_eq!(s.resynchronize(), 8);
        assert_eq!(s.sample_count(), 0);
        assert_eq!(s.resynchronize(), 0);
    }

    #[test]
    fn faulty_clock_cannot_shift_the_average_past_the_correct_range() {
        // Classic FTA property: with k=1 and one arbitrary value among
        // otherwise close measurements, the correction stays within the
        // range of the correct measurements.
        let correct = [3, 5, 4];
        for byzantine in [i32::MIN / 2, -77, 0, 99, i32::MAX / 2] {
            let mut s = ClockSync::new(1);
            for d in correct {
                s.record(d);
            }
            s.record(byzantine);
            let corr = s.correction().unwrap();
            assert!((3..=5).contains(&corr), "byzantine {byzantine} gave {corr}");
        }
    }

    #[test]
    fn drifting_clock_accumulates_rate_error() {
        let mut fast = DriftingClock::new(100.0); // +100 ppm
        fast.advance(1_000_000.0);
        assert!((fast.offset_from(1_000_000.0) - 100.0).abs() < 1e-6);

        let mut slow = DriftingClock::new(-100.0);
        slow.advance(1_000_000.0);
        assert!((slow.offset_from(1_000_000.0) + 100.0).abs() < 1e-6);
    }

    #[test]
    fn correction_realigns_clock() {
        let mut c = DriftingClock::new(50.0);
        c.advance(1_000_000.0);
        let offset = c.offset_from(1_000_000.0);
        c.correct(offset.round() as i32);
        assert!(c.offset_from(1_000_000.0).abs() < 1.0);
    }

    #[test]
    fn display_mentions_configuration() {
        let s = ClockSync::new(2);
        assert!(s.to_string().contains("k=2"));
    }
}
