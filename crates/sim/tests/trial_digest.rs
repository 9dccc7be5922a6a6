//! Pins the simulator's trial outputs bit for bit.
//!
//! Every applicable built-in scenario under bus and star, every coupler
//! authority and two restart policies (`never`, `watchdog:8`) runs 64
//! campaign trials; each [`TrialResult`] is folded field by field into
//! one FNV-1a digest (floats through `f64::to_bits`, options with a tag
//! byte). A change to the simulator step that claims to be
//! behavior-preserving must reproduce the pinned digests exactly.
//!
//! The grid runs twice: once with every fault lasting to the horizon,
//! and once with 60-slot fault windows (E10's shape). Only the second
//! leaves faulted trials a fault-free tail, so only it pins
//! `Simulation::run`'s fast-forward over settled rounds on trials that
//! had a fault.

use tta_base::hash::fnv1a64;
use tta_guardian::CouplerAuthority;
use tta_protocol::RestartPolicy;
use tta_sim::{Campaign, Scenario, Topology, TrialResult};

const TRIALS: u32 = 64;

/// The digest of the sweep with faults lasting to the horizon. Only a
/// deliberate change to the simulator's semantics may re-pin it.
const PINNED: u64 = 0x40e4_9e25_4a34_a5f3;

/// The digest of the sweep with 60-slot fault windows, captured at
/// commit 14a223b, before `Simulation::run` fast-forwarded settled
/// rounds. Only a deliberate change to the simulator's semantics may
/// re-pin it.
const PINNED_FINITE_FAULTS: u64 = 0x3e8c_bf07_75d7_fc60;

fn fold(bytes: &mut Vec<u8>, trial: &TrialResult) {
    bytes.extend_from_slice(&trial.index.to_le_bytes());
    bytes.extend_from_slice(&trial.seed.to_le_bytes());
    bytes.push(trial.outcome as u8);
    bytes.push(trial.recovery as u8);
    bytes.extend_from_slice(&trial.unavailability.to_bits().to_le_bytes());
    match trial.time_to_reintegration {
        None => bytes.push(0),
        Some(ttr) => {
            bytes.push(1);
            bytes.extend_from_slice(&ttr.to_le_bytes());
        }
    }
}

/// Runs the grid, each fault limited to `fault_duration` slots if
/// given, and returns the digest of every trial in order.
fn sweep_digest(fault_duration: Option<u64>) -> u64 {
    let mut bytes = Vec::new();
    let mut trials = 0;
    for topology in [Topology::Bus, Topology::Star] {
        for authority in CouplerAuthority::all() {
            for policy in [
                RestartPolicy::Never,
                RestartPolicy::Watchdog { silence_slots: 8 },
            ] {
                let mut campaign = Campaign::new(4, topology, authority)
                    .trials(TRIALS)
                    .restart_policy(policy);
                if let Some(duration) = fault_duration {
                    campaign = campaign.fault_duration(duration);
                }
                for scenario in Scenario::all() {
                    for trial in campaign.run_trials(scenario) {
                        fold(&mut bytes, &trial);
                        trials += 1;
                    }
                }
            }
        }
    }
    // 2 topologies × 4 authorities × 2 policies × 8 scenarios, minus
    // coupler replay wherever no full-shifting star coupler exists.
    assert_eq!(trials, TRIALS * (2 * 4 * 2 * 8 - 2 * 7));
    fnv1a64(&bytes)
}

#[test]
fn trial_outputs_match_the_pinned_digest() {
    let digest = sweep_digest(None);
    assert_eq!(digest, PINNED, "simulator outputs drifted: {digest:#018x}");
}

#[test]
fn finite_fault_windows_match_the_pinned_digest() {
    let digest = sweep_digest(Some(60));
    assert_eq!(
        digest, PINNED_FINITE_FAULTS,
        "simulator outputs drifted: {digest:#018x}"
    );
}
