//! Host-side restart policies for frozen controllers.
//!
//! The paper treats `freeze` as absorbing: its test for fault propagation
//! is "a healthy node froze", full stop. Real TTP/C deployments recover —
//! the host power-cycles the controller, which re-enters `init`, listens
//! and reintegrates. This module models that host-side loop:
//!
//! * [`RestartPolicy`] says *whether and when* the host restarts a
//!   controller that froze after having started. [`RestartPolicy::Never`]
//!   is the default and preserves the paper's absorbing-freeze semantics.
//! * [`RestartSupervisor`] is the per-node bookkeeping that turns a
//!   policy into concrete restart slots: it watches freeze entries,
//!   answers "is a restart due now?", and counts attempts (for the
//!   exponential backoff and for giving up).
//!
//! The supervisor deliberately governs only *re*-freezes. The initial
//! cold-start dwell in `freeze` belongs to the start-delay policy
//! ([`crate::DelayedStartPolicy`]); a watchdog therefore never fires
//! during cold start — there is nothing to restart before the node has
//! started once.

use std::fmt;

/// When (if ever) a host restarts its frozen controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RestartPolicy {
    /// Never restart: `freeze` is absorbing, the paper's semantics and
    /// the default.
    #[default]
    Never,
    /// Restart on the first slot after the freeze.
    Immediate,
    /// Restart with exponential backoff: the *k*-th restart (counting
    /// from 1) comes `backoff_slots * 2^(k-1)` slots after the most
    /// recent freeze (saturating, and at least one slot). After
    /// `max_restarts` restarts the host gives up; `max_restarts = 0` is
    /// equivalent to [`RestartPolicy::Never`].
    BoundedRetry {
        /// Restarts before the host gives up.
        max_restarts: u32,
        /// Base backoff in slots; doubled per attempt.
        backoff_slots: u64,
    },
    /// Never give up: restart whenever the controller has been frozen
    /// for `silence_slots` slots (at least one).
    Watchdog {
        /// Frozen dwell before the watchdog fires.
        silence_slots: u64,
    },
}

impl RestartPolicy {
    /// Slots after the most recent freeze at which the next restart is
    /// due, given that `restarts_used` restarts already happened — or
    /// `None` if this policy never restarts again. Delays are at least
    /// one slot (a controller cannot restart within the slot it froze)
    /// and saturate instead of overflowing.
    #[must_use]
    pub fn restart_delay(&self, restarts_used: u32) -> Option<u64> {
        match *self {
            RestartPolicy::Never => None,
            RestartPolicy::Immediate => Some(1),
            RestartPolicy::BoundedRetry {
                max_restarts,
                backoff_slots,
            } => (restarts_used < max_restarts).then(|| {
                let factor = 1u64.checked_shl(restarts_used).unwrap_or(u64::MAX);
                backoff_slots.saturating_mul(factor).max(1)
            }),
            RestartPolicy::Watchdog { silence_slots } => Some(silence_slots.max(1)),
        }
    }

    /// Whether the policy has given up after `restarts_used` restarts —
    /// a node frozen at that point stays frozen forever.
    #[must_use]
    pub fn exhausted(&self, restarts_used: u32) -> bool {
        self.restart_delay(restarts_used).is_none()
    }
}

impl fmt::Display for RestartPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestartPolicy::Never => f.write_str("never"),
            RestartPolicy::Immediate => f.write_str("immediate"),
            RestartPolicy::BoundedRetry {
                max_restarts,
                backoff_slots,
            } => write!(f, "retry(max {max_restarts}, backoff {backoff_slots})"),
            RestartPolicy::Watchdog { silence_slots } => write!(f, "watchdog({silence_slots})"),
        }
    }
}

/// Per-node restart bookkeeping: tracks the current frozen dwell and the
/// restarts already spent, and schedules the next restart according to a
/// [`RestartPolicy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartSupervisor {
    policy: RestartPolicy,
    frozen_since: Option<u64>,
    restarts: u32,
}

impl RestartSupervisor {
    /// A supervisor that has seen no freeze yet.
    #[must_use]
    pub fn new(policy: RestartPolicy) -> Self {
        RestartSupervisor {
            policy,
            frozen_since: None,
            restarts: 0,
        }
    }

    /// The configured policy.
    #[must_use]
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }

    /// Notes that the supervised controller froze at `slot`. Idempotent
    /// while the controller stays frozen.
    pub fn on_freeze(&mut self, slot: u64) {
        if self.frozen_since.is_none() {
            self.frozen_since = Some(slot);
        }
    }

    /// Whether a restart is due at slot `now`.
    #[must_use]
    pub fn restart_due(&self, now: u64) -> bool {
        let Some(frozen) = self.frozen_since else {
            return false;
        };
        self.policy
            .restart_delay(self.restarts)
            .is_some_and(|delay| now >= frozen.saturating_add(delay))
    }

    /// Notes that the host restarted the controller.
    pub fn on_restart(&mut self) {
        self.restarts += 1;
        self.frozen_since = None;
    }

    /// Restarts performed so far.
    #[must_use]
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// Slot of the freeze currently being supervised, if the controller
    /// is frozen.
    #[must_use]
    pub fn frozen_since(&self) -> Option<u64> {
        self.frozen_since
    }

    /// Whether the controller is frozen and the policy will never
    /// restart it again.
    #[must_use]
    pub fn gave_up(&self) -> bool {
        self.frozen_since.is_some() && self.policy.exhausted(self.restarts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restart_delay_table() {
        // (policy, restarts already used, expected delay after the freeze)
        let cases: [(RestartPolicy, u32, Option<u64>); 12] = [
            (RestartPolicy::Never, 0, None),
            (RestartPolicy::Never, 7, None),
            (RestartPolicy::Immediate, 0, Some(1)),
            (RestartPolicy::Immediate, 1000, Some(1)),
            // max_restarts = 0 never restarts: equivalent to Never.
            (bounded(0, 4), 0, None),
            // Exponential backoff: 4, 8, then give up.
            (bounded(2, 4), 0, Some(4)),
            (bounded(2, 4), 1, Some(8)),
            (bounded(2, 4), 2, None),
            // A zero base backoff still waits one slot.
            (bounded(3, 0), 2, Some(1)),
            (RestartPolicy::Watchdog { silence_slots: 6 }, 0, Some(6)),
            (RestartPolicy::Watchdog { silence_slots: 6 }, 99, Some(6)),
            (RestartPolicy::Watchdog { silence_slots: 0 }, 0, Some(1)),
        ];
        for (policy, used, expected) in cases {
            assert_eq!(
                policy.restart_delay(used),
                expected,
                "{policy} after {used} restarts"
            );
            assert_eq!(policy.exhausted(used), expected.is_none(), "{policy}");
        }
    }

    fn bounded(max_restarts: u32, backoff_slots: u64) -> RestartPolicy {
        RestartPolicy::BoundedRetry {
            max_restarts,
            backoff_slots,
        }
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let policy = bounded(u32::MAX, u64::MAX / 2);
        assert_eq!(policy.restart_delay(0), Some(u64::MAX / 2));
        assert_eq!(policy.restart_delay(2), Some(u64::MAX));
        // Shift counts past the word size saturate too.
        assert_eq!(policy.restart_delay(64), Some(u64::MAX));
        assert_eq!(policy.restart_delay(u32::MAX - 1), Some(u64::MAX));
        let tiny = bounded(u32::MAX, 3);
        assert_eq!(tiny.restart_delay(63), Some(u64::MAX));
    }

    #[test]
    fn supervisor_walks_the_backoff_schedule() {
        let mut sup = RestartSupervisor::new(bounded(2, 4));
        assert!(!sup.restart_due(100), "nothing frozen yet");
        sup.on_freeze(10);
        sup.on_freeze(11); // idempotent while frozen
        assert_eq!(sup.frozen_since(), Some(10));
        assert!(!sup.restart_due(13));
        assert!(sup.restart_due(14), "first restart 4 slots after freeze");
        sup.on_restart();
        assert_eq!(sup.restarts(), 1);
        assert!(!sup.restart_due(100), "not frozen after the restart");
        sup.on_freeze(20);
        assert!(!sup.restart_due(27));
        assert!(sup.restart_due(28), "second restart backs off to 8");
        sup.on_restart();
        sup.on_freeze(30);
        assert!(!sup.restart_due(u64::MAX), "budget exhausted");
        assert!(sup.gave_up());
    }

    #[test]
    fn zero_max_restarts_matches_never() {
        let mut never = RestartSupervisor::new(RestartPolicy::Never);
        let mut zero = RestartSupervisor::new(bounded(0, 4));
        for sup in [&mut never, &mut zero] {
            sup.on_freeze(5);
            assert!(!sup.restart_due(5));
            assert!(!sup.restart_due(u64::MAX));
            assert!(sup.gave_up());
        }
    }

    #[test]
    fn watchdog_never_gives_up() {
        let mut sup = RestartSupervisor::new(RestartPolicy::Watchdog { silence_slots: 3 });
        for round in 0..50u64 {
            let freeze = 100 * round;
            sup.on_freeze(freeze);
            assert!(!sup.restart_due(freeze + 2));
            assert!(sup.restart_due(freeze + 3));
            assert!(!sup.gave_up());
            sup.on_restart();
        }
        assert_eq!(sup.restarts(), 50);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(RestartPolicy::Never.to_string(), "never");
        assert_eq!(RestartPolicy::Immediate.to_string(), "immediate");
        assert_eq!(bounded(3, 4).to_string(), "retry(max 3, backoff 4)");
        assert_eq!(
            RestartPolicy::Watchdog { silence_slots: 8 }.to_string(),
            "watchdog(8)"
        );
    }

    #[test]
    fn default_is_never() {
        assert_eq!(RestartPolicy::default(), RestartPolicy::Never);
    }
}
