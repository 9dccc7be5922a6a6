//! Clock-drift and resynchronization experiments.
//!
//! Section 6's ρ — the relative clock-rate difference between guardian
//! and nodes — is a physical quantity: crystals drift. This module runs
//! the fault-tolerant-average clock synchronization of
//! [`tta_protocol::clocksync`] over a cluster of drifting clocks and
//! measures the offsets that result, connecting three claims:
//!
//! * *without* synchronization, offsets grow linearly with elapsed time
//!   (rate = the ppm difference);
//! * *with* per-round FTA resynchronization, offsets stay bounded by
//!   roughly one round's worth of drift, even with one Byzantine clock
//!   (the FTA discards extremes);
//! * the residual rate difference that synchronization cannot remove —
//!   the drift *within* a round — is exactly the ρ that sizes the
//!   guardian's buffer (eq. 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use tta_protocol::clocksync::{ClockSync, DriftingClock};

/// Configuration of a drift experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftExperiment {
    /// Number of clocks (nodes).
    pub clocks: usize,
    /// Crystal tolerance in ppm; each clock's rate error is drawn
    /// uniformly from ±this.
    pub tolerance_ppm: f64,
    /// Microticks per TDMA round (resynchronization period).
    pub round_microticks: f64,
    /// Rounds to simulate.
    pub rounds: u32,
    /// Whether to apply FTA resynchronization at each round boundary.
    pub resynchronize: bool,
    /// Index of a clock with an arbitrary (Byzantine) rate, if any.
    pub byzantine: Option<usize>,
    /// RNG seed for the rate draws.
    pub seed: u64,
}

impl DriftExperiment {
    /// A 4-node, ±100 ppm, 10,000-microtick-round experiment matching the
    /// paper's crystal example.
    #[must_use]
    pub fn paper_crystals() -> Self {
        DriftExperiment {
            clocks: 4,
            tolerance_ppm: 100.0,
            round_microticks: 10_000.0,
            rounds: 100,
            resynchronize: true,
            byzantine: None,
            seed: 0x77A_2004,
        }
    }

    /// Runs the experiment.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `2k + 1 = 3` clocks are configured (the FTA
    /// with k = 1 needs a surviving majority) or the Byzantine index is
    /// out of range.
    #[must_use]
    pub fn run(&self) -> DriftReport {
        assert!(self.clocks >= 3, "FTA with k = 1 needs at least 3 clocks");
        if let Some(b) = self.byzantine {
            assert!(b < self.clocks, "byzantine index {b} out of range");
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut clocks: Vec<DriftingClock> = (0..self.clocks)
            .map(|i| {
                let ppm = if Some(i) == self.byzantine {
                    // An arbitrary, far-out-of-spec rate.
                    rng.gen_range(5_000.0..50_000.0)
                } else {
                    rng.gen_range(-self.tolerance_ppm..=self.tolerance_ppm)
                };
                DriftingClock::new(ppm)
            })
            .collect();

        let mut max_offset: f64 = 0.0;
        let mut final_offset: f64 = 0.0;
        let mut elapsed = 0.0;
        for _ in 0..self.rounds {
            for clock in &mut clocks {
                clock.advance(self.round_microticks);
            }
            elapsed += self.round_microticks;

            let spread = healthy_spread(&clocks, self.byzantine);
            max_offset = max_offset.max(spread);
            final_offset = spread;

            if self.resynchronize {
                // Each healthy clock measures its deviation from every
                // other clock (including the Byzantine one — FTA must
                // survive it) and applies the fault-tolerant average.
                let now: Vec<f64> = clocks.iter().map(DriftingClock::now).collect();
                for (i, clock) in clocks.iter_mut().enumerate() {
                    if Some(i) == self.byzantine {
                        continue;
                    }
                    let mut sync = ClockSync::new(1);
                    for (j, other) in now.iter().enumerate() {
                        if i != j {
                            sync.record((now[i] - other).round() as i32);
                        }
                    }
                    clock.correct(sync.resynchronize());
                }
            }
        }

        DriftReport {
            max_offset_microticks: max_offset,
            final_offset_microticks: final_offset,
            elapsed_microticks: elapsed,
            per_round_drift_bound: 2.0 * self.tolerance_ppm * 1e-6 * self.round_microticks,
        }
    }
}

fn healthy_spread(clocks: &[DriftingClock], byzantine: Option<usize>) -> f64 {
    let healthy: Vec<f64> = clocks
        .iter()
        .enumerate()
        .filter(|(i, _)| Some(*i) != byzantine)
        .map(|(_, c)| c.now())
        .collect();
    let max = healthy.iter().copied().fold(f64::MIN, f64::max);
    let min = healthy.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

/// Result of a drift experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Largest pairwise offset between healthy clocks ever observed.
    pub max_offset_microticks: f64,
    /// Offset at the end of the run.
    pub final_offset_microticks: f64,
    /// Total simulated time.
    pub elapsed_microticks: f64,
    /// The analytic per-round drift bound 2·tol·round (what ρ accumulates
    /// over one resynchronization interval).
    pub per_round_drift_bound: f64,
}

impl fmt::Display for DriftReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max offset {:.2} µt (final {:.2} µt) over {:.0} µt; per-round bound {:.2} µt",
            self.max_offset_microticks,
            self.final_offset_microticks,
            self.elapsed_microticks,
            self.per_round_drift_bound
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DriftExperiment {
        DriftExperiment {
            clocks: 4,
            tolerance_ppm: 100.0,
            round_microticks: 10_000.0,
            rounds: 200,
            resynchronize: true,
            byzantine: None,
            seed: 42,
        }
    }

    #[test]
    fn unsynchronized_offsets_grow_linearly() {
        let mut config = base();
        config.resynchronize = false;
        let short = DriftExperiment {
            rounds: 50,
            ..config
        }
        .run();
        let long = DriftExperiment {
            rounds: 200,
            ..config
        }
        .run();
        // 4× the time, ~4× the final offset.
        let ratio = long.final_offset_microticks / short.final_offset_microticks;
        assert!((3.5..=4.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn synchronized_offsets_stay_bounded() {
        let report = base().run();
        // With per-round FTA, offsets never exceed a few rounds' drift.
        assert!(
            report.max_offset_microticks <= 4.0 * report.per_round_drift_bound,
            "{report}"
        );
        // ...while 200 rounds of unsynchronized drift would be far larger.
        let mut unsync = base();
        unsync.resynchronize = false;
        assert!(unsync.run().max_offset_microticks > 10.0 * report.max_offset_microticks);
    }

    #[test]
    fn fta_survives_a_byzantine_clock() {
        let mut config = base();
        config.byzantine = Some(2);
        let report = config.run();
        assert!(
            report.max_offset_microticks <= 6.0 * report.per_round_drift_bound,
            "healthy clocks must stay synchronized despite the Byzantine one: {report}"
        );
    }

    #[test]
    fn per_round_bound_matches_rho() {
        // The per-round drift bound is ρ·round with ρ from eq. (5).
        let report = base().run();
        assert!((report.per_round_drift_bound - 2.0).abs() < 1e-9); // 0.0002 · 10000
    }

    #[test]
    fn paper_crystals_preset_is_consistent() {
        let report = DriftExperiment::paper_crystals().run();
        assert!(report.max_offset_microticks.is_finite());
        assert!(report.per_round_drift_bound > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 3 clocks")]
    fn two_clocks_cannot_run_fta() {
        let mut config = base();
        config.clocks = 2;
        let _ = config.run();
    }

    #[test]
    fn report_display_is_informative() {
        let report = base().run();
        assert!(report.to_string().contains("max offset"));
    }
}
