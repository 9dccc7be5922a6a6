//! Slightly-off-specification (SOS) defects.
//!
//! An SOS fault (Ademaj, HLDVT'02; paper Section 2.2) is a frame that is
//! *marginally* out of specification — slightly late, slightly early, or
//! slightly under-powered — so that receivers with slightly different
//! hardware tolerances disagree on whether it is valid. In a bus topology
//! this disagreement splits the membership into cliques and shuts down
//! healthy nodes; a central guardian with signal-reshaping authority
//! repairs the defect before the receivers ever see it.
//!
//! This module models the defect and the per-receiver acceptance decision.
//! Acceptance is deterministic given the receiver's tolerance: receiver
//! tolerances are drawn once per node (manufacturing variation), and a
//! defect of magnitude `m` is accepted exactly by receivers whose
//! tolerance exceeds `m`. This captures the paper's mechanism (receivers
//! *systematically* disagree) without random per-frame coin flips.

use std::fmt;

/// In which domain a frame is slightly off specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SosDomain {
    /// Frame timing is marginally outside its slot window.
    Time,
    /// Signal amplitude is marginally below the required level.
    Value,
}

impl fmt::Display for SosDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SosDomain::Time => "time",
            SosDomain::Value => "value",
        })
    }
}

/// A slightly-off-specification defect attached to a frame.
///
/// `magnitude` is normalized to `[0, 1]`: 0 is perfectly in spec, 1 is
/// fully out of spec (rejected by every receiver). Values strictly
/// between those extremes are the SOS region where receivers disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SosDefect {
    domain: SosDomain,
    magnitude: f64,
}

impl SosDefect {
    /// Creates a defect.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` is outside `[0, 1]` or not finite.
    #[must_use]
    pub fn new(domain: SosDomain, magnitude: f64) -> Self {
        assert!(
            magnitude.is_finite() && (0.0..=1.0).contains(&magnitude),
            "SOS magnitude must be in [0, 1], got {magnitude}"
        );
        SosDefect { domain, magnitude }
    }

    /// The affected domain.
    #[must_use]
    pub fn domain(&self) -> SosDomain {
        self.domain
    }

    /// Normalized defect magnitude.
    #[must_use]
    pub fn magnitude(&self) -> f64 {
        self.magnitude
    }

    /// Whether this defect can split receivers at all (it is in the open
    /// interval where tolerances differ).
    #[must_use]
    pub fn is_marginal(&self) -> bool {
        self.magnitude > 0.0 && self.magnitude < 1.0
    }
}

impl fmt::Display for SosDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SOS({} domain, magnitude {:.2})",
            self.domain, self.magnitude
        )
    }
}

/// A receiver's hardware tolerance: the largest defect magnitude it still
/// accepts, per domain. Manufacturing variation makes these differ
/// slightly between nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReceiverTolerance {
    time: f64,
    value: f64,
}

impl ReceiverTolerance {
    /// Creates a tolerance profile.
    ///
    /// # Panics
    ///
    /// Panics if either tolerance is outside `[0, 1]`.
    #[must_use]
    pub fn new(time: f64, value: f64) -> Self {
        for (name, t) in [("time", time), ("value", value)] {
            assert!(
                t.is_finite() && (0.0..=1.0).contains(&t),
                "{name} tolerance must be in [0, 1], got {t}"
            );
        }
        ReceiverTolerance { time, value }
    }

    /// The nominal receiver: accepts defects up to magnitude 0.5 in both
    /// domains.
    #[must_use]
    pub fn nominal() -> Self {
        ReceiverTolerance::new(0.5, 0.5)
    }

    /// Tolerance in the given domain.
    #[must_use]
    pub fn in_domain(&self, domain: SosDomain) -> f64 {
        match domain {
            SosDomain::Time => self.time,
            SosDomain::Value => self.value,
        }
    }

    /// Whether this receiver accepts a frame carrying `defect` (no defect
    /// is always accepted).
    #[must_use]
    pub fn accepts(&self, defect: Option<&SosDefect>) -> bool {
        match defect {
            None => true,
            Some(d) => d.magnitude() <= self.in_domain(d.domain()),
        }
    }
}

impl fmt::Display for ReceiverTolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tolerance(time {:.2}, value {:.2})",
            self.time, self.value
        )
    }
}

/// Whether a set of receivers disagrees about a defective frame — the
/// definition of an SOS *failure* (some accept, some reject).
#[must_use]
pub fn receivers_disagree(tolerances: &[ReceiverTolerance], defect: &SosDefect) -> bool {
    let accepted = tolerances
        .iter()
        .filter(|t| t.accepts(Some(defect)))
        .count();
    accepted != 0 && accepted != tolerances.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_defect_is_always_accepted() {
        assert!(ReceiverTolerance::new(0.0, 0.0).accepts(None));
    }

    #[test]
    fn acceptance_thresholds_on_tolerance() {
        let tol = ReceiverTolerance::new(0.3, 0.7);
        let mild_time = SosDefect::new(SosDomain::Time, 0.2);
        let bad_time = SosDefect::new(SosDomain::Time, 0.4);
        assert!(tol.accepts(Some(&mild_time)));
        assert!(!tol.accepts(Some(&bad_time)));
        // Same magnitudes in the value domain use the other threshold.
        let mild_value = SosDefect::new(SosDomain::Value, 0.4);
        assert!(tol.accepts(Some(&mild_value)));
    }

    #[test]
    fn marginal_defects_split_heterogeneous_receivers() {
        let tolerances = [
            ReceiverTolerance::new(0.45, 0.5),
            ReceiverTolerance::new(0.55, 0.5),
        ];
        let defect = SosDefect::new(SosDomain::Time, 0.5);
        assert!(receivers_disagree(&tolerances, &defect));
    }

    #[test]
    fn extreme_defects_produce_agreement() {
        let tolerances = [
            ReceiverTolerance::new(0.45, 0.5),
            ReceiverTolerance::new(0.55, 0.5),
        ];
        let perfect = SosDefect::new(SosDomain::Time, 0.0);
        let hopeless = SosDefect::new(SosDomain::Time, 1.0);
        assert!(!receivers_disagree(&tolerances, &perfect));
        assert!(!receivers_disagree(&tolerances, &hopeless));
    }

    #[test]
    fn homogeneous_receivers_never_disagree() {
        let tolerances = [ReceiverTolerance::nominal(); 4];
        for m in [0.0, 0.3, 0.5, 0.7, 1.0] {
            let defect = SosDefect::new(SosDomain::Value, m);
            assert!(!receivers_disagree(&tolerances, &defect), "magnitude {m}");
        }
    }

    #[test]
    fn is_marginal_excludes_extremes() {
        assert!(!SosDefect::new(SosDomain::Time, 0.0).is_marginal());
        assert!(SosDefect::new(SosDomain::Time, 0.5).is_marginal());
        assert!(!SosDefect::new(SosDomain::Time, 1.0).is_marginal());
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn magnitude_is_range_checked() {
        let _ = SosDefect::new(SosDomain::Time, 1.5);
    }

    #[test]
    fn display_is_informative() {
        let d = SosDefect::new(SosDomain::Value, 0.25);
        assert!(d.to_string().contains("value"));
        assert!(ReceiverTolerance::nominal().to_string().contains("0.50"));
    }
}
