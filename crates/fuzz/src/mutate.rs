//! Mutation operators over [`FuzzInput`]s.
//!
//! Every operator preserves the structural invariants [`FuzzInput`]
//! relies on (`1 <= from < to <= slots`, intermittent `period >= 2`
//! with `1 <= duty < period`, magnitudes from a fixed palette,
//! claimed slots in `1..=nodes`) so the only repair [`FuzzInput::plan`]
//! ever performs is the cross-channel coupler-overlap drop. Operators
//! draw all randomness from the per-candidate [`FuzzRng`], so a mutant
//! is a pure function of `(parent, corpus, seed)`.

use tta_guardian::sos::SosDomain;
use tta_guardian::CouplerFaultMode;
use tta_sim::{FaultEvent, FaultPersistence, FaultTarget, NodeFaultKind};
use tta_types::NodeId;

use crate::input::FuzzInput;
use crate::rng::FuzzRng;

/// Magnitudes the SOS mutator draws from. A fixed palette keeps
/// rendering, hashing, and TOML round-trips exact; 0.5 is the paper's
/// "slightly off-specification" sweet spot that splits receivers.
pub(crate) const MAGNITUDES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Cap on events per input: plans worth pinning are small, and the
/// shrinker removes the rest.
const MAX_EVENTS: usize = 5;

/// The mutation engine: cluster-shape parameters plus the operator set.
#[derive(Debug, Clone, Copy)]
pub struct Mutator {
    /// Cluster size (node indices and claimed slots derive from it).
    pub nodes: usize,
    /// Simulation horizon; windows stay inside it so emitted scenarios
    /// are free of ML30 beyond-horizon lint findings.
    pub slots: u64,
    /// Whether the out-of-slot coupler mode is offered. The engine
    /// enables this only when the coverage probe shows some authority
    /// level actually admits replay steps.
    pub allow_out_of_slot: bool,
}

impl Mutator {
    /// The deterministic seed corpus: the fault-free origin plus one
    /// representative of each single-fault family from the E9/E10
    /// campaigns, all mid-horizon transients.
    #[must_use]
    pub fn seed_corpus(&self) -> Vec<FuzzInput> {
        let from = self.slots / 8;
        let to = self.slots / 2;
        let single = |target| FuzzInput {
            events: vec![FaultEvent {
                target,
                from_slot: from,
                to_slot: to,
                persistence: FaultPersistence::Transient,
            }],
        };
        let mut seeds = vec![
            FuzzInput::empty(),
            single(FaultTarget::Coupler {
                channel: 0,
                mode: CouplerFaultMode::Silence,
            }),
            single(FaultTarget::Coupler {
                channel: 0,
                mode: CouplerFaultMode::BadFrame,
            }),
            single(FaultTarget::Node {
                node: NodeId::new(1),
                kind: NodeFaultKind::Sos {
                    domain: SosDomain::Time,
                    magnitude: 0.5,
                },
            }),
            single(FaultTarget::Node {
                node: NodeId::new(1),
                kind: NodeFaultKind::Babbling,
            }),
            single(FaultTarget::Node {
                node: NodeId::new(2),
                kind: NodeFaultKind::Mute,
            }),
        ];
        if self.allow_out_of_slot {
            seeds.push(single(FaultTarget::Coupler {
                channel: 0,
                mode: CouplerFaultMode::OutOfSlot,
            }));
        }
        seeds
    }

    /// Produces one mutant of `parent`. `corpus` feeds the splice
    /// operator (crossover with another entry's events).
    #[must_use]
    pub fn mutate(&self, parent: &FuzzInput, corpus: &[FuzzInput], rng: &mut FuzzRng) -> FuzzInput {
        let mut child = parent.clone();
        // One to three stacked operators: single steps explore the
        // neighborhood, occasional doubles jump saddle points.
        let applications = 1 + rng.gen_range(3) as usize / 2;
        for _ in 0..applications {
            self.apply_one(&mut child, corpus, rng);
        }
        child
    }

    fn apply_one(&self, child: &mut FuzzInput, corpus: &[FuzzInput], rng: &mut FuzzRng) {
        if child.events.is_empty() {
            child.events.push(self.random_event(rng));
            return;
        }
        match rng.gen_range(9) {
            // Add an event.
            0 => {
                if child.events.len() < MAX_EVENTS {
                    child.events.push(self.random_event(rng));
                }
            }
            // Remove an event.
            1 => {
                let i = rng.gen_range(child.events.len() as u64) as usize;
                child.events.remove(i);
            }
            // Shift the window.
            2 => {
                let event = self.pick_event(child, rng);
                let width = event.to_slot - event.from_slot;
                let delta = 1 + rng.gen_range(self.slots / 8);
                if rng.gen_bool(1, 2) {
                    event.to_slot = (event.to_slot + delta).min(self.slots);
                    event.from_slot = event.to_slot - width.min(event.to_slot - 1);
                } else {
                    event.from_slot = event.from_slot.saturating_sub(delta).max(1);
                    event.to_slot = (event.from_slot + width).min(self.slots);
                }
            }
            // Grow the window.
            3 => {
                let slots = self.slots;
                let event = self.pick_event(child, rng);
                let delta = 1 + rng.gen_range(slots / 4);
                event.to_slot = (event.to_slot + delta).min(slots);
            }
            // Shrink the window (keep at least one slot).
            4 => {
                let event = self.pick_event(child, rng);
                let width = event.to_slot - event.from_slot;
                if width > 1 {
                    let delta = 1 + rng.gen_range(width - 1);
                    event.to_slot -= delta;
                }
            }
            // Cycle persistence.
            5 => {
                let event = self.pick_event(child, rng);
                event.persistence = match event.persistence {
                    FaultPersistence::Transient => {
                        if rng.gen_bool(1, 2) {
                            let period = 2 + rng.gen_range(7);
                            let duty = 1 + rng.gen_range(period - 1);
                            FaultPersistence::Intermittent { period, duty }
                        } else {
                            FaultPersistence::Permanent
                        }
                    }
                    FaultPersistence::Intermittent { .. } | FaultPersistence::Permanent => {
                        FaultPersistence::Transient
                    }
                };
            }
            // Retarget: flip the channel or move the fault to another
            // node.
            6 => {
                let nodes = self.nodes;
                let event = self.pick_event(child, rng);
                match &mut event.target {
                    FaultTarget::Coupler { channel, .. } => *channel = 1 - *channel,
                    FaultTarget::Node { node, .. } => {
                        *node = NodeId::new(rng.gen_range(nodes as u64) as u8);
                    }
                }
            }
            // Change the fault mode / kind in place.
            7 => {
                let event = self.pick_event(child, rng);
                match &mut event.target {
                    FaultTarget::Coupler { mode, .. } => *mode = self.random_mode(rng),
                    FaultTarget::Node { kind, .. } => *kind = self.random_kind(rng),
                }
            }
            // Splice: graft one event from another corpus entry.
            _ => {
                let donors: Vec<&FaultEvent> =
                    corpus.iter().flat_map(|input| &input.events).collect();
                if !donors.is_empty() && child.events.len() < MAX_EVENTS {
                    child.events.push(**rng.pick(&donors));
                }
            }
        }
    }

    fn pick_event<'a>(&self, child: &'a mut FuzzInput, rng: &mut FuzzRng) -> &'a mut FaultEvent {
        let i = rng.gen_range(child.events.len() as u64) as usize;
        &mut child.events[i]
    }

    fn random_mode(&self, rng: &mut FuzzRng) -> CouplerFaultMode {
        let modes: &[CouplerFaultMode] = if self.allow_out_of_slot {
            &[
                CouplerFaultMode::Silence,
                CouplerFaultMode::BadFrame,
                CouplerFaultMode::OutOfSlot,
            ]
        } else {
            &[CouplerFaultMode::Silence, CouplerFaultMode::BadFrame]
        };
        *rng.pick(modes)
    }

    fn random_kind(&self, rng: &mut FuzzRng) -> NodeFaultKind {
        let claimed = 1 + rng.gen_range(self.nodes as u64) as u16;
        match rng.gen_range(5) {
            0 => NodeFaultKind::Sos {
                domain: if rng.gen_bool(1, 2) {
                    SosDomain::Time
                } else {
                    SosDomain::Value
                },
                magnitude: *rng.pick(&MAGNITUDES),
            },
            1 => NodeFaultKind::MasqueradeColdStart {
                claimed_slot: claimed,
            },
            2 => NodeFaultKind::InvalidCState {
                claimed_slot: claimed,
            },
            3 => NodeFaultKind::Babbling,
            _ => NodeFaultKind::Mute,
        }
    }

    fn random_event(&self, rng: &mut FuzzRng) -> FaultEvent {
        let from_slot = 1 + rng.gen_range(self.slots / 2);
        let width = 1 + rng.gen_range(self.slots / 2);
        let to_slot = (from_slot + width).min(self.slots);
        let target = if rng.gen_bool(1, 2) {
            FaultTarget::Coupler {
                channel: rng.gen_range(2) as usize,
                mode: self.random_mode(rng),
            }
        } else {
            FaultTarget::Node {
                node: NodeId::new(rng.gen_range(self.nodes as u64) as u8),
                kind: self.random_kind(rng),
            }
        };
        FaultEvent {
            target,
            from_slot,
            to_slot,
            persistence: FaultPersistence::Transient,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(mutator: &Mutator, input: &FuzzInput) {
        assert!(input.events.len() <= MAX_EVENTS);
        for event in &input.events {
            let token = crate::input::render_event(event);
            assert!(event.from_slot >= 1, "{token}");
            assert!(event.from_slot < event.to_slot, "{token}");
            assert!(event.to_slot <= mutator.slots, "{token}");
            if let FaultPersistence::Intermittent { period, duty } = event.persistence {
                assert!(period >= 2 && (1..period).contains(&duty));
            }
            match event.target {
                FaultTarget::Coupler { channel, mode } => {
                    assert!(channel < 2);
                    assert!(mutator.allow_out_of_slot || mode != CouplerFaultMode::OutOfSlot);
                }
                FaultTarget::Node { node, .. } => {
                    assert!(node.as_usize() < mutator.nodes);
                }
            }
        }
        // The lowering must never panic.
        let _ = input.plan();
    }

    #[test]
    fn thousands_of_mutants_stay_structurally_valid() {
        let mutator = Mutator {
            nodes: 4,
            slots: 400,
            allow_out_of_slot: false,
        };
        let corpus = mutator.seed_corpus();
        let mut rng = FuzzRng::new(42);
        for seed in &corpus {
            let mut current = seed.clone();
            for _ in 0..500 {
                current = mutator.mutate(&current, &corpus, &mut rng);
                well_formed(&mutator, &current);
            }
        }
    }

    #[test]
    fn mutation_is_a_pure_function_of_the_seed() {
        let mutator = Mutator {
            nodes: 4,
            slots: 400,
            allow_out_of_slot: true,
        };
        let corpus = mutator.seed_corpus();
        let a = mutator.mutate(&corpus[3], &corpus, &mut FuzzRng::new(99));
        let b = mutator.mutate(&corpus[3], &corpus, &mut FuzzRng::new(99));
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_slot_is_gated() {
        let mutator = Mutator {
            nodes: 4,
            slots: 400,
            allow_out_of_slot: false,
        };
        let corpus = mutator.seed_corpus();
        let mut rng = FuzzRng::new(5);
        for _ in 0..2000 {
            let mutant = mutator.mutate(&corpus[1], &corpus, &mut rng);
            well_formed(&mutator, &mutant);
        }
    }
}
