//! Deterministic failure injection for the campaign service itself.
//!
//! The paper's thesis is that centralizing a function concentrates its
//! failure modes; `tta-campaignd` centralizes campaign execution, so it
//! gets the same treatment we give the modeled cluster: injected
//! faults, and a proof that the recovery machinery masks them. A
//! [`ChaosPlan`] describes *which* failures to inject — worker panics,
//! trial delays past the supervision deadline, connection drops,
//! process kills — and every injection decision is a pure function of
//! the chaos seed and the trial's identity, never of wall-clock or
//! scheduling, so a chaos run is reproducible.
//!
//! The spec grammar (the daemon's `--chaos` flag) is a comma-separated
//! key=value list:
//!
//! ```text
//! panic=0.1,timeout=12,drop=10,kill=3,poison=5,hang=7,seed=42
//! ```
//!
//! * `panic=P`   — each trial's *first* attempt panics with probability
//!   P (hashed from the chaos seed and the trial seed); retries never
//!   re-panic, so a bounded retry budget fully masks these.
//! * `timeout=I` — trial I's first attempt stalls past the supervision
//!   deadline; the chunk lease expires and a healthy worker re-runs it.
//! * `drop=N`    — the daemon severs the submit connection after
//!   streaming the chunk that carries the Nth trial line (once per
//!   process); a resilient client reconnects and resumes.
//! * `kill=N`    — the daemon aborts (`std::process::abort`, a
//!   power-cut stand-in) after the batch commit that makes the Nth
//!   chunk durable, counted per process across jobs; that batch may
//!   commit more than N chunks, all of which a resume finds again.
//! * `poison=I`  — trial I panics on *every* attempt: the retry budget
//!   burns out and the trial is deterministically quarantined.
//! * `hang=I`    — trial I stalls past the deadline on every attempt:
//!   the timeout budget burns out and the trial is quarantined.
//! * `seed=S`    — the injection seed (decimal or 0x hex).

use crate::spec::SpecError;
use tta_base::hash::mix;

/// A parsed chaos specification. `ChaosPlan::default()` injects
/// nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChaosPlan {
    /// Probability that a trial's first attempt panics.
    pub panic_p: f64,
    /// Trial whose first attempt stalls past the deadline.
    pub timeout_trial: Option<u32>,
    /// Sever the submit connection after the chunk that carries this
    /// many streamed trial lines (once per daemon process).
    pub drop_after: Option<u64>,
    /// Abort the process after the batch commit that makes this many
    /// chunks durable (counted per process, across jobs).
    pub kill_after_chunks: Option<u64>,
    /// Trial that panics on every attempt (deterministic quarantine).
    pub poison_trial: Option<u32>,
    /// Trial that stalls on every attempt (timeout quarantine).
    pub hang_trial: Option<u32>,
    /// Injection seed.
    pub seed: u64,
}

impl ChaosPlan {
    /// Parses the `--chaos` spec grammar.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the malformed key or value.
    pub fn parse(spec: &str) -> Result<ChaosPlan, SpecError> {
        let mut plan = ChaosPlan::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| SpecError(format!("chaos: `{part}` is not key=value")))?;
            let (key, value) = (key.trim(), value.trim());
            let int = || -> Result<u64, SpecError> {
                value
                    .strip_prefix("0x")
                    .map_or_else(
                        || value.parse().ok(),
                        |hex| u64::from_str_radix(hex, 16).ok(),
                    )
                    .ok_or_else(|| {
                        SpecError(format!("chaos: `{key}` needs an integer, got `{value}`"))
                    })
            };
            let trial = || -> Result<u32, SpecError> {
                int().and_then(|v| {
                    u32::try_from(v)
                        .map_err(|_| SpecError(format!("chaos: `{key}` trial index too large")))
                })
            };
            match key {
                "panic" => {
                    let p: f64 = value.parse().map_err(|_| {
                        SpecError(format!("chaos: `panic` needs a probability, got `{value}`"))
                    })?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(SpecError("chaos: `panic` must be in [0, 1]".to_string()));
                    }
                    plan.panic_p = p;
                }
                "timeout" => plan.timeout_trial = Some(trial()?),
                "drop" => plan.drop_after = Some(int()?),
                "kill" => plan.kill_after_chunks = Some(int()?),
                "poison" => plan.poison_trial = Some(trial()?),
                "hang" => plan.hang_trial = Some(trial()?),
                "seed" => plan.seed = int()?,
                other => return Err(SpecError(format!("chaos: unknown key `{other}`"))),
            }
        }
        Ok(plan)
    }

    /// Whether this plan injects anything at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        *self != ChaosPlan::default()
    }

    /// Whether attempt `attempt` of the trial with `trial_seed` at
    /// `index` must panic. Pure: depends only on the plan and the
    /// trial's identity, so every run makes the same decisions.
    #[must_use]
    pub fn injects_panic(&self, index: u32, trial_seed: u64, attempt: u32) -> bool {
        if self.poison_trial == Some(index) {
            return true;
        }
        if attempt > 0 || self.panic_p <= 0.0 {
            return false;
        }
        // Map the hash to [0, 1) and compare against p.
        let h = mix(self.seed ^ mix(trial_seed) ^ 0x9E37_79B9_7F4A_7C15);
        ((h >> 11) as f64) / ((1u64 << 53) as f64) < self.panic_p
    }

    /// Whether attempt `attempt` of trial `index` must stall past the
    /// supervision deadline.
    #[must_use]
    pub fn injects_stall(&self, index: u32, attempt: u32) -> bool {
        if self.hang_trial == Some(index) {
            return true;
        }
        self.timeout_trial == Some(index) && attempt == 0
    }
}

impl std::fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if self.panic_p > 0.0 {
            parts.push(format!("panic={}", self.panic_p));
        }
        if let Some(t) = self.timeout_trial {
            parts.push(format!("timeout={t}"));
        }
        if let Some(n) = self.drop_after {
            parts.push(format!("drop={n}"));
        }
        if let Some(n) = self.kill_after_chunks {
            parts.push(format!("kill={n}"));
        }
        if let Some(t) = self.poison_trial {
            parts.push(format!("poison={t}"));
        }
        if let Some(t) = self.hang_trial {
            parts.push(format!("hang={t}"));
        }
        parts.push(format!("seed={}", self.seed));
        f.write_str(&parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_full_grammar_parses() {
        let plan =
            ChaosPlan::parse("panic=0.25,timeout=12,drop=10,kill=3,poison=5,hang=7,seed=0x2a")
                .unwrap();
        assert_eq!(plan.panic_p, 0.25);
        assert_eq!(plan.timeout_trial, Some(12));
        assert_eq!(plan.drop_after, Some(10));
        assert_eq!(plan.kill_after_chunks, Some(3));
        assert_eq!(plan.poison_trial, Some(5));
        assert_eq!(plan.hang_trial, Some(7));
        assert_eq!(plan.seed, 42);
        assert!(plan.is_active());
        assert!(!ChaosPlan::default().is_active());
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        assert!(ChaosPlan::parse("panic").is_err());
        assert!(ChaosPlan::parse("panic=2.0").is_err());
        assert!(ChaosPlan::parse("drop=x").is_err());
        assert!(ChaosPlan::parse("nope=1").is_err());
    }

    #[test]
    fn panic_injection_is_deterministic_and_first_attempt_only() {
        let plan = ChaosPlan::parse("panic=0.5,seed=7").unwrap();
        let mut hits = 0;
        for seed in 0..200u64 {
            let first = plan.injects_panic(0, seed, 0);
            assert_eq!(first, plan.injects_panic(0, seed, 0), "must be stable");
            assert!(!plan.injects_panic(0, seed, 1), "retries never re-panic");
            if first {
                hits += 1;
            }
        }
        assert!((50..150).contains(&hits), "p=0.5 over 200 seeds: {hits}");
    }

    #[test]
    fn poison_and_hang_persist_across_attempts() {
        let plan = ChaosPlan::parse("poison=3,hang=4").unwrap();
        for attempt in 0..5 {
            assert!(plan.injects_panic(3, 99, attempt));
            assert!(plan.injects_stall(4, attempt));
        }
        assert!(!plan.injects_panic(2, 99, 0));
        assert!(!plan.injects_stall(5, 0));
        // A plain timeout only stalls the first attempt.
        let plan = ChaosPlan::parse("timeout=6").unwrap();
        assert!(plan.injects_stall(6, 0));
        assert!(!plan.injects_stall(6, 1));
    }
}
