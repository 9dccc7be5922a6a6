//! Cluster modes and deferred mode changes.
//!
//! A TTP/C cluster can operate in one of several *cluster modes*, each
//! with its own MEDL (e.g. startup, normal operation, limp-home). Frames
//! carry a 4-bit mode change request (MCR) field; a requested change is
//! *deferred* — it takes effect at the start of the next cluster cycle so
//! every node switches schedules simultaneously. The C-state carries the
//! current mode, so nodes in different modes judge each other's frames
//! incorrect: mode agreement is part of the consistency the paper's
//! central guardian must not corrupt.

use crate::{ClusterMode, Medl, MedlError};
use std::error::Error;
use std::fmt;

/// The decoded meaning of a frame's 4-bit MCR field: 0 requests nothing,
/// value `k + 1` requests a switch to cluster mode `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ModeChangeRequest(u8);

impl ModeChangeRequest {
    /// No change requested (MCR = 0).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Requests a switch to `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the encoded value would not fit the 4-bit field
    /// (`mode > 14`).
    #[must_use]
    pub fn switch_to(mode: ClusterMode) -> Self {
        assert!(
            mode.get() <= 14,
            "mode {} does not fit the MCR field",
            mode.get()
        );
        ModeChangeRequest(mode.get() + 1)
    }

    /// Decodes a raw 4-bit field value.
    ///
    /// # Panics
    ///
    /// Panics if `raw > 15`.
    #[must_use]
    pub fn from_wire(raw: u8) -> Self {
        assert!(raw <= 15, "MCR field is 4 bits");
        ModeChangeRequest(raw)
    }

    /// Encodes to the 4-bit wire value.
    #[must_use]
    pub fn to_wire(self) -> u8 {
        self.0
    }

    /// The requested target mode, if any.
    #[must_use]
    pub fn target(self) -> Option<ClusterMode> {
        (self.0 > 0).then(|| ClusterMode::new((self.0 - 1).min(7)))
    }
}

impl fmt::Display for ModeChangeRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target() {
            None => write!(f, "no mode change"),
            Some(mode) => write!(f, "request mode {}", mode.get()),
        }
    }
}

/// Errors from mode management.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeError {
    /// The requested mode has no schedule.
    UnknownMode {
        /// Requested mode number.
        mode: u8,
        /// Number of configured modes.
        configured: usize,
    },
    /// A different change is already pending; TTP/C rejects conflicting
    /// requests within one cluster cycle.
    ConflictingRequest {
        /// Mode already pending.
        pending: u8,
        /// Newly requested mode.
        requested: u8,
    },
}

impl fmt::Display for ModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModeError::UnknownMode { mode, configured } => {
                write!(
                    f,
                    "mode {mode} is not configured ({configured} modes exist)"
                )
            }
            ModeError::ConflictingRequest { pending, requested } => {
                write!(
                    f,
                    "mode {requested} requested while change to {pending} is pending"
                )
            }
        }
    }
}

impl Error for ModeError {}

/// The per-node mode automaton: tracks the active mode and applies
/// deferred mode changes at cluster-cycle boundaries.
///
/// # Example
///
/// ```
/// use tta_types::modes::{ClusterSchedule, ModeChangeRequest};
/// use tta_types::{ClusterMode, Medl};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let schedule = ClusterSchedule::new(vec![Medl::identity(4)?, Medl::identity(3)?])?;
/// let mut manager = schedule.manager();
/// manager.request(ModeChangeRequest::switch_to(ClusterMode::new(1)))?;
/// assert_eq!(manager.active_mode().get(), 0, "change is deferred");
/// manager.cycle_boundary();
/// assert_eq!(manager.active_mode().get(), 1, "applied at the boundary");
/// assert_eq!(manager.active_medl().slots_per_round(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModeManager {
    schedule: ClusterSchedule,
    active: u8,
    pending: Option<u8>,
}

impl ModeManager {
    /// Active cluster mode.
    #[must_use]
    pub fn active_mode(&self) -> ClusterMode {
        ClusterMode::new(self.active)
    }

    /// The MEDL of the active mode.
    #[must_use]
    pub fn active_medl(&self) -> &Medl {
        &self.schedule.medls[usize::from(self.active)]
    }

    /// The deferred target mode, if a change is pending.
    #[must_use]
    pub fn pending_mode(&self) -> Option<ClusterMode> {
        self.pending.map(ClusterMode::new)
    }

    /// Registers a mode change request (from a received frame's MCR
    /// field or the local host). The change defers to the next cycle
    /// boundary. Requesting the current or already-pending mode is a
    /// no-op; a *different* pending mode is a conflict.
    ///
    /// # Errors
    ///
    /// [`ModeError::UnknownMode`] for unconfigured modes,
    /// [`ModeError::ConflictingRequest`] for conflicting pending changes.
    pub fn request(&mut self, mcr: ModeChangeRequest) -> Result<(), ModeError> {
        let Some(target) = mcr.target() else {
            return Ok(());
        };
        let mode = target.get();
        if usize::from(mode) >= self.schedule.medls.len() {
            return Err(ModeError::UnknownMode {
                mode,
                configured: self.schedule.medls.len(),
            });
        }
        if mode == self.active && self.pending.is_none() {
            return Ok(());
        }
        match self.pending {
            None => {
                self.pending = Some(mode);
                Ok(())
            }
            Some(pending) if pending == mode => Ok(()),
            Some(pending) => Err(ModeError::ConflictingRequest {
                pending,
                requested: mode,
            }),
        }
    }

    /// Applies any pending change; call at each cluster-cycle boundary.
    /// Returns the new active mode.
    pub fn cycle_boundary(&mut self) -> ClusterMode {
        if let Some(next) = self.pending.take() {
            self.active = next;
        }
        self.active_mode()
    }
}

/// The set of per-mode schedules a cluster is configured with.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSchedule {
    medls: Vec<Medl>,
}

impl ClusterSchedule {
    /// Creates a schedule set; mode *k* uses `medls[k]`.
    ///
    /// # Errors
    ///
    /// Returns [`MedlError::EmptySchedule`] if no mode is configured.
    pub fn new(medls: Vec<Medl>) -> Result<Self, MedlError> {
        if medls.is_empty() {
            return Err(MedlError::EmptySchedule);
        }
        Ok(ClusterSchedule { medls })
    }

    /// Number of configured modes.
    #[must_use]
    pub fn mode_count(&self) -> usize {
        self.medls.len()
    }

    /// A manager starting in mode 0.
    #[must_use]
    pub fn manager(&self) -> ModeManager {
        ModeManager {
            schedule: self.clone(),
            active: 0,
            pending: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> ClusterSchedule {
        ClusterSchedule::new(vec![
            Medl::identity(4).unwrap(),
            Medl::identity(3).unwrap(),
            Medl::identity(2).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn mcr_encodes_and_decodes() {
        assert_eq!(ModeChangeRequest::none().to_wire(), 0);
        assert_eq!(ModeChangeRequest::none().target(), None);
        let req = ModeChangeRequest::switch_to(ClusterMode::new(3));
        assert_eq!(req.to_wire(), 4);
        assert_eq!(ModeChangeRequest::from_wire(4), req);
        assert_eq!(req.target(), Some(ClusterMode::new(3)));
    }

    #[test]
    fn changes_defer_to_the_cycle_boundary() {
        let mut m = schedule().manager();
        assert_eq!(m.active_medl().slots_per_round(), 4);
        m.request(ModeChangeRequest::switch_to(ClusterMode::new(2)))
            .unwrap();
        assert_eq!(m.active_mode().get(), 0);
        assert_eq!(m.pending_mode(), Some(ClusterMode::new(2)));
        assert_eq!(m.cycle_boundary().get(), 2);
        assert_eq!(m.active_medl().slots_per_round(), 2);
        assert_eq!(m.pending_mode(), None);
    }

    #[test]
    fn unknown_modes_are_rejected() {
        let mut m = schedule().manager();
        let err = m
            .request(ModeChangeRequest::switch_to(ClusterMode::new(5)))
            .unwrap_err();
        assert!(matches!(
            err,
            ModeError::UnknownMode {
                mode: 5,
                configured: 3
            }
        ));
    }

    #[test]
    fn conflicting_requests_are_rejected() {
        let mut m = schedule().manager();
        m.request(ModeChangeRequest::switch_to(ClusterMode::new(1)))
            .unwrap();
        // Same request again: idempotent.
        m.request(ModeChangeRequest::switch_to(ClusterMode::new(1)))
            .unwrap();
        let err = m
            .request(ModeChangeRequest::switch_to(ClusterMode::new(2)))
            .unwrap_err();
        assert!(matches!(
            err,
            ModeError::ConflictingRequest {
                pending: 1,
                requested: 2
            }
        ));
    }

    #[test]
    fn requesting_the_current_mode_is_a_noop() {
        let mut m = schedule().manager();
        m.request(ModeChangeRequest::switch_to(ClusterMode::new(0)))
            .unwrap();
        assert_eq!(m.pending_mode(), None);
        m.request(ModeChangeRequest::none()).unwrap();
        assert_eq!(m.pending_mode(), None);
    }

    #[test]
    fn boundary_without_pending_change_keeps_mode() {
        let mut m = schedule().manager();
        assert_eq!(m.cycle_boundary().get(), 0);
    }

    #[test]
    fn empty_schedule_is_rejected() {
        assert_eq!(
            ClusterSchedule::new(vec![]).unwrap_err(),
            MedlError::EmptySchedule
        );
    }

    #[test]
    fn displays_are_informative() {
        assert_eq!(ModeChangeRequest::none().to_string(), "no mode change");
        assert!(ModeChangeRequest::switch_to(ClusterMode::new(2))
            .to_string()
            .contains("mode 2"));
        let err = ModeError::UnknownMode {
            mode: 9,
            configured: 2,
        };
        assert!(err.to_string().contains("9"));
    }
}
