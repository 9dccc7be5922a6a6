//! The TTP/C controller transition relation (paper Section 4.3).
//!
//! One [`Controller`] value is the complete per-node state vector of the
//! formal model. One call to [`Controller::successors`] is one TDMA-slot
//! transition: the node observes the two channels, updates its clique
//! counters, big-bang flag, listen timeout and slot counter, and moves
//! through the protocol state machine. All nondeterministic choices the
//! paper models (staggered startup, choice of integration frame, host
//! shutdown) are enumerated; [`Controller::step`] resolves them through a
//! [`HostPolicy`] for simulation.
//!
//! ## Modeling notes (kept faithful to the paper, documented where the
//! paper is silent)
//!
//! * **Slot-position abstraction.** Frames carry the slot id of their
//!   sender (`id_on_bus`); an integrated receiver judges a frame correct
//!   iff that id matches its own slot counter. This is the abstraction of
//!   C-state agreement the paper uses: a replayed frame carries a stale
//!   position and is therefore *incorrect* for integrated receivers but
//!   indistinguishable from a good frame for integrating ones.
//! * **Own slot counts as agreed.** A transmitting node records its own
//!   send as an agreed slot (TTP/C behavior; it makes the paper's
//!   cold-start test `agreed ≤ 1 ∧ failed = 0` read "only my own frame").
//! * **Passive promotion.** The paper's model leaves `passive`
//!   underconstrained. Here a passive node promotes to `active` when the
//!   clique test passes at its own slot, stays passive through silent
//!   rounds, and freezes on a minority verdict — the behavior its traces
//!   exhibit (integrating nodes start sending a round later; node B/D
//!   freeze "due to a clique avoidance error" while passive).
//! * **Protocol vs host freezes.** The paper both allows `active →
//!   freeze` nondeterministically *and* checks that integrated nodes never
//!   freeze. We reconcile this the only consistent way: voluntary host
//!   transitions are tagged [`TransitionCause::Host`] and disabled in
//!   checking configurations ("the nodes are modeled not to fail"); the
//!   checked property watches only [`TransitionCause::Protocol`] freezes.

use crate::clique::{CliqueCounters, CliqueVerdict};
use crate::host::{HostChoices, HostPolicy};
use crate::observation::ChannelView;
use crate::state::ProtocolState;
use std::fmt;
use tta_types::{NodeId, SlotIndex};

/// What a node puts on the bus during the current slot, as a function of
/// its current state (the paper's `frame_sent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SendIntent {
    /// The node does not transmit.
    Silent,
    /// A cold-start frame claiming slot `id`.
    ColdStart {
        /// Claimed slot id (the sender's own slot).
        id: u16,
    },
    /// An explicit-C-state frame claiming slot `id`.
    CStateFrame {
        /// Claimed slot id (the sender's own slot).
        id: u16,
    },
}

impl SendIntent {
    /// Whether the node transmits at all.
    #[must_use]
    pub fn is_sending(self) -> bool {
        !matches!(self, SendIntent::Silent)
    }
}

/// Why a transition happened: forced by the protocol rules, or chosen by
/// the (modeled) host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionCause {
    /// The protocol rules force this transition (deterministic
    /// consequences of the channel observation).
    Protocol,
    /// A host decision resolved nondeterminism (startup staggering,
    /// voluntary shutdown, choice of integration frame).
    Host,
}

/// One enumerated successor of a controller.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Transition {
    /// The successor state.
    pub next: Controller,
    /// Whether the protocol forced it or the host chose it.
    pub cause: TransitionCause,
}

/// Noteworthy things that happened during one transition, derived by
/// comparing predecessor and successor. Used by trace narration and the
/// simulator's logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolEvent {
    /// The node left `init` and started listening.
    StartedListening,
    /// The listen timeout expired; the node will cold-start.
    ListenTimeoutExpired,
    /// The node observed a first cold-start frame and armed the big-bang
    /// filter.
    ArmedBigBang,
    /// The node integrated on a cold-start frame and adopted slot `id`+1.
    IntegratedOnColdStart {
        /// Id observed on the bus.
        id: u16,
    },
    /// The node integrated on an explicit-C-state frame.
    IntegratedOnCState {
        /// Id observed on the bus.
        id: u16,
    },
    /// The node sent a cold-start frame this slot.
    SentColdStart,
    /// The node sent an explicit-C-state frame this slot.
    SentCState,
    /// A clique test passed; the node (re)enters active operation.
    CliqueTestPassed,
    /// A clique test failed; the integrated node froze.
    FrozeOnCliqueError,
    /// A cold-start clique test failed; the node fell back to listen.
    ColdStartAbandoned,
    /// The host shut the node down or demoted it.
    HostIntervention,
}

/// The per-node state vector of the paper's formal model.
///
/// Controllers are cheap to copy and hash; the model checker stores
/// millions of them. Fields that are meaningless in the current protocol
/// state are kept at canonical values so that semantically identical
/// states collide in the visited set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Controller {
    node_id: NodeId,
    slots_per_round: u16,
    state: ProtocolState,
    /// Current slot in the TDMA schedule (1-based); canonical 1 outside
    /// slot-keeping states.
    slot: u16,
    counters: CliqueCounters,
    big_bang: bool,
    listen_timeout: u16,
    /// Unsuccessful (no-traffic) cold-start rounds so far; canonical 0
    /// outside `cold_start`. See [`MAX_COLD_START_ROUNDS`].
    cold_start_rounds: u8,
}

/// Maximum consecutive no-traffic cold-start rounds before a node
/// abandons its attempt and returns to `listen` (TTP/C's bounded
/// cold-start entries). Bounding the retries is what resolves persistent
/// cold-start contention: two nodes whose timeouts expired in the same
/// slot collide round after round (their frames merge into noise), but
/// after this many fruitless rounds both fall back to `listen`, where the
/// node-unique listen timeouts break the symmetry.
pub const MAX_COLD_START_ROUNDS: u8 = 3;

impl Controller {
    /// Creates a controller in the initial `freeze` state.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_round == 0` or the node's slot lies outside
    /// the round.
    #[must_use]
    pub fn new(node_id: NodeId, slots_per_round: u16) -> Self {
        assert!(slots_per_round > 0, "a round needs at least one slot");
        assert!(
            u16::from(node_id.index()) < slots_per_round,
            "node {node_id} has no slot in a round of {slots_per_round}"
        );
        Controller {
            node_id,
            slots_per_round,
            state: ProtocolState::Freeze,
            slot: 1,
            counters: CliqueCounters::new(),
            big_bang: false,
            listen_timeout: 0,
            cold_start_rounds: 0,
        }
    }

    /// Reassembles a controller from its accessor-visible parts — the
    /// inverse of the accessors, used by state codecs that bit-pack
    /// controller states for the model checker's visited set.
    ///
    /// `slot` is the raw slot-counter value; pass the canonical `1` for
    /// states that keep no slot counter (what the accessor reports as
    /// `None`). Likewise `listen_timeout` and `cold_start_rounds` must be
    /// at their canonical `0` outside `listen` / `cold_start`.
    ///
    /// # Panics
    ///
    /// Panics on values no reachable controller can hold (an out-of-round
    /// slot, a timeout beyond `listen_timeout_init`, retry counts at or
    /// past [`MAX_COLD_START_ROUNDS`]) — any such input indicates a codec
    /// bug, not a model state.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        node_id: NodeId,
        slots_per_round: u16,
        state: ProtocolState,
        slot: u16,
        counters: CliqueCounters,
        big_bang: bool,
        listen_timeout: u16,
        cold_start_rounds: u8,
    ) -> Self {
        let template = Controller::new(node_id, slots_per_round);
        assert!(
            slot >= 1 && slot <= slots_per_round,
            "slot {slot} outside round of {slots_per_round}"
        );
        assert!(
            listen_timeout <= template.listen_timeout_init(),
            "listen timeout {listen_timeout} beyond its initial value"
        );
        assert!(
            cold_start_rounds < MAX_COLD_START_ROUNDS,
            "{cold_start_rounds} cold-start rounds would already have reset to listen"
        );
        Controller {
            node_id,
            slots_per_round,
            state,
            slot,
            counters,
            big_bang,
            listen_timeout,
            cold_start_rounds,
        }
    }

    /// The node this controller belongs to.
    #[must_use]
    pub fn node_id(&self) -> NodeId {
        self.node_id
    }

    /// Slots per TDMA round.
    #[must_use]
    pub fn slots_per_round(&self) -> u16 {
        self.slots_per_round
    }

    /// Current protocol state.
    #[must_use]
    pub fn protocol_state(&self) -> ProtocolState {
        self.state
    }

    /// Current slot counter, if the state keeps one.
    #[must_use]
    pub fn slot(&self) -> Option<SlotIndex> {
        self.state
            .keeps_slot_counter()
            .then(|| SlotIndex::new(self.slot))
    }

    /// Clique counters accumulated this round.
    #[must_use]
    pub fn counters(&self) -> CliqueCounters {
        self.counters
    }

    /// Whether the big-bang filter is armed (a first cold-start frame has
    /// been seen in `listen`).
    #[must_use]
    pub fn big_bang_armed(&self) -> bool {
        self.big_bang
    }

    /// Remaining listen timeout in slots (0 outside `listen`).
    #[must_use]
    pub fn listen_timeout(&self) -> u16 {
        self.listen_timeout
    }

    /// Fruitless cold-start rounds so far (0 outside `cold_start`).
    #[must_use]
    pub fn cold_start_rounds(&self) -> u8 {
        self.cold_start_rounds
    }

    /// Whether the node is integrated (`active` or `passive`).
    #[must_use]
    pub fn is_integrated(&self) -> bool {
        self.state.is_integrated()
    }

    /// The node's statically assigned slot number (identity schedule:
    /// node *i* owns slot *i + 1*).
    #[must_use]
    pub fn own_slot(&self) -> u16 {
        u16::from(self.node_id.index()) + 1
    }

    /// Initial listen-timeout value: one full round plus the node's own
    /// slot number (paper: "initialized with the number of slots plus the
    /// number of the slot that is assigned to the node").
    #[must_use]
    pub fn listen_timeout_init(&self) -> u16 {
        self.slots_per_round + self.own_slot()
    }

    /// What the node transmits during the *current* slot — a pure function
    /// of the current state (the paper's `frame_sent`).
    #[must_use]
    pub fn send_intent(&self) -> SendIntent {
        match self.state {
            ProtocolState::Active if self.slot == self.own_slot() => {
                SendIntent::CStateFrame { id: self.slot }
            }
            ProtocolState::ColdStart if self.slot == self.own_slot() => {
                SendIntent::ColdStart { id: self.slot }
            }
            _ => SendIntent::Silent,
        }
    }

    /// Enumerates every possible next state for the given channel view —
    /// the transition relation `R` restricted to this node.
    ///
    /// Successors are deduplicated; protocol-forced successors come before
    /// host alternatives for the same source state.
    #[must_use]
    pub fn successors(&self, view: &ChannelView, choices: &HostChoices) -> Vec<Transition> {
        let mut out = Vec::with_capacity(4);
        match self.state {
            ProtocolState::Freeze => {
                // freeze → {freeze, init} (+ await/test when enabled).
                self.push(
                    &mut out,
                    self.reset_to(ProtocolState::Init),
                    TransitionCause::Host,
                );
                if choices.staggered_startup {
                    self.push(&mut out, *self, TransitionCause::Host);
                }
                if choices.allow_await_test {
                    self.push(
                        &mut out,
                        self.reset_to(ProtocolState::Await),
                        TransitionCause::Host,
                    );
                    self.push(
                        &mut out,
                        self.reset_to(ProtocolState::Test),
                        TransitionCause::Host,
                    );
                }
            }
            ProtocolState::Init => {
                // init → {init, listen} (+ freeze when shutdown allowed).
                self.push(&mut out, self.enter_listen(), TransitionCause::Host);
                if choices.staggered_startup {
                    self.push(&mut out, *self, TransitionCause::Host);
                }
                if choices.allow_shutdown {
                    self.push(
                        &mut out,
                        self.reset_to(ProtocolState::Freeze),
                        TransitionCause::Host,
                    );
                }
            }
            ProtocolState::Listen => self.listen_successors(view, &mut out),
            ProtocolState::ColdStart => {
                self.push(
                    &mut out,
                    self.integrated_step(view, true),
                    TransitionCause::Protocol,
                );
            }
            ProtocolState::Active => {
                self.push(
                    &mut out,
                    self.integrated_step(view, false),
                    TransitionCause::Protocol,
                );
                if choices.allow_shutdown {
                    self.push(
                        &mut out,
                        self.reset_to(ProtocolState::Freeze),
                        TransitionCause::Host,
                    );
                    let mut demoted = *self;
                    demoted.state = ProtocolState::Passive;
                    self.push(&mut out, demoted.advanced(view), TransitionCause::Host);
                }
            }
            ProtocolState::Passive => {
                self.push(
                    &mut out,
                    self.integrated_step(view, false),
                    TransitionCause::Protocol,
                );
            }
            ProtocolState::Await | ProtocolState::Test | ProtocolState::Download => {
                // Inert host-service states: unconstrained in the paper,
                // modeled as absorbing.
                self.push(&mut out, *self, TransitionCause::Host);
            }
        }
        out
    }

    /// Executes one slot, letting `policy` resolve the nondeterminism.
    #[must_use]
    pub fn step<P: HostPolicy + ?Sized>(
        &self,
        view: &ChannelView,
        choices: &HostChoices,
        policy: &mut P,
    ) -> Controller {
        let options = self.successors(view, choices);
        debug_assert!(!options.is_empty(), "transition relation is total");
        if options.len() == 1 {
            return options[0].next;
        }
        let pick = policy.choose(self, &options).min(options.len() - 1);
        options[pick].next
    }

    fn push(&self, out: &mut Vec<Transition>, next: Controller, cause: TransitionCause) {
        if !out.iter().any(|t| t.next == next) {
            out.push(Transition { next, cause });
        }
    }

    /// A controller reset to `state` with all auxiliary variables at
    /// canonical values.
    fn reset_to(&self, state: ProtocolState) -> Controller {
        Controller {
            node_id: self.node_id,
            slots_per_round: self.slots_per_round,
            state,
            slot: 1,
            counters: CliqueCounters::new(),
            big_bang: false,
            listen_timeout: 0,
            cold_start_rounds: 0,
        }
    }

    fn enter_listen(&self) -> Controller {
        let mut c = self.reset_to(ProtocolState::Listen);
        c.listen_timeout = self.listen_timeout_init();
        c
    }

    fn enter_cold_start(&self) -> Controller {
        let mut c = self.reset_to(ProtocolState::ColdStart);
        c.slot = self.own_slot();
        c
    }

    /// LISTEN-state successors (paper Section 4.3, `LISTEN`).
    fn listen_successors(&self, view: &ChannelView, out: &mut Vec<Transition>) {
        let candidates = view.integration_candidates();
        let integratable: Vec<_> = candidates
            .iter()
            .filter(|obs| match obs.kind {
                tta_types::FrameKind::ColdStart => self.big_bang,
                _ => true, // explicit C-state integrates immediately
            })
            .copied()
            .collect();

        if !integratable.is_empty() {
            // Integrating: adopt id_on_bus + 1 and go passive. If the two
            // channels offer frames with *different* ids, each choice is a
            // distinct successor (resolved nondeterministically).
            let mut targets: Vec<Controller> = Vec::with_capacity(2);
            for obs in integratable {
                let mut c = self.reset_to(ProtocolState::Passive);
                c.slot = SlotIndex::new(obs.id)
                    .integration_successor(self.slots_per_round)
                    .get();
                if !targets.contains(&c) {
                    targets.push(c);
                }
            }
            let cause = if targets.len() > 1 {
                TransitionCause::Host
            } else {
                TransitionCause::Protocol
            };
            for c in targets {
                self.push(out, c, cause);
            }
            return;
        }

        // Not integrating: maintain big_bang and the timeout.
        let mut c = *self;
        if view.has_cold_start() {
            c.big_bang = true;
        }
        if view.has_cold_start() || view.has_other() {
            c.listen_timeout = self.listen_timeout_init();
        } else {
            c.listen_timeout = c.listen_timeout.saturating_sub(1);
        }

        // An unconsumed cold-start frame keeps the node listening even at
        // timeout zero; otherwise timeout expiry begins a cold start.
        let next = if view.has_cold_start() {
            c
        } else if self.listen_timeout == 0 {
            self.enter_cold_start()
        } else {
            c
        };
        self.push(out, next, TransitionCause::Protocol);
    }

    /// Common transition for slot-keeping states (`cold_start`, `active`,
    /// `passive`): count the slot's traffic, advance the slot counter, and
    /// run the clique test when the node's own slot comes up again.
    fn integrated_step(&self, view: &ChannelView, cold_start: bool) -> Controller {
        let mut c = *self;

        // Count this slot. A transmitting node counts its own send and
        // does not judge the bus (it is driving it); receivers judge the
        // joint channel view.
        if self.send_intent().is_sending() {
            c.counters = c.counters.record_own_send();
        } else {
            c.counters = c.counters.record(view.joint_judgment(self.slot));
        }

        // Advance the slot counter (the paper's next_slot).
        let next_slot = SlotIndex::new(self.slot).next(self.slots_per_round).get();
        c.slot = next_slot;

        // Clique test on re-entering the own slot.
        if next_slot == self.own_slot() {
            let verdict = if cold_start {
                c.counters.cold_start_verdict()
            } else {
                c.counters.integrated_verdict()
            };
            match (cold_start, verdict) {
                (true, CliqueVerdict::NoTraffic) => {
                    // Keep cold-starting (slot already points at the own
                    // slot) — but only for a bounded number of fruitless
                    // rounds; then fall back to listen so that persistent
                    // cold-start collisions resolve.
                    c.cold_start_rounds = self.cold_start_rounds.saturating_add(1);
                    if c.cold_start_rounds >= MAX_COLD_START_ROUNDS {
                        return self.enter_listen();
                    }
                    c.counters = CliqueCounters::new();
                }
                (true, CliqueVerdict::Majority) => {
                    c.state = ProtocolState::Active;
                    c.counters = CliqueCounters::new();
                }
                (true, CliqueVerdict::Minority) => {
                    return self.enter_listen();
                }
                (false, CliqueVerdict::NoTraffic) => {
                    // Reachable only when passive (an active node's own
                    // sends keep agreed ≥ 1). A freshly integrated node
                    // must start transmitting at its own slot even through
                    // silence — TTP/C integrators acquire their slot and
                    // let the subsequent clique tests police them; a node
                    // that stayed mute would strand a lone cold-starter
                    // (which gives up after MAX_COLD_START_ROUNDS).
                    c.state = ProtocolState::Active;
                    c.counters = CliqueCounters::new();
                }
                (false, CliqueVerdict::Majority) => {
                    c.state = ProtocolState::Active;
                    c.counters = CliqueCounters::new();
                }
                (false, CliqueVerdict::Minority) => {
                    return self.reset_to(ProtocolState::Freeze);
                }
            }
        }
        c
    }

    /// Advances only the slot counter (used for host-demoted nodes so the
    /// demotion does not skip a slot).
    fn advanced(&self, view: &ChannelView) -> Controller {
        let mut c = *self;
        c.counters = c.counters.record(view.joint_judgment(self.slot));
        c.slot = SlotIndex::new(self.slot).next(self.slots_per_round).get();
        c
    }

    /// Derives the noteworthy events of a transition `self → next` under
    /// `view`, for narration and logging.
    #[must_use]
    pub fn events(&self, view: &ChannelView, next: &Controller) -> Vec<ProtocolEvent> {
        let mut events = Vec::new();
        match self.send_intent() {
            SendIntent::ColdStart { .. } => events.push(ProtocolEvent::SentColdStart),
            SendIntent::CStateFrame { .. } => events.push(ProtocolEvent::SentCState),
            SendIntent::Silent => {}
        }
        match (self.state, next.state) {
            (ProtocolState::Init, ProtocolState::Listen) => {
                events.push(ProtocolEvent::StartedListening);
            }
            (ProtocolState::Listen, ProtocolState::ColdStart) => {
                events.push(ProtocolEvent::ListenTimeoutExpired);
            }
            (ProtocolState::Listen, ProtocolState::Passive) => {
                let id = next
                    .slot
                    .checked_sub(1)
                    .filter(|s| *s >= 1)
                    .unwrap_or(self.slots_per_round);
                if view.has_cold_start() && self.big_bang {
                    events.push(ProtocolEvent::IntegratedOnColdStart { id });
                } else {
                    events.push(ProtocolEvent::IntegratedOnCState { id });
                }
            }
            (ProtocolState::Listen, ProtocolState::Listen) if !self.big_bang && next.big_bang => {
                events.push(ProtocolEvent::ArmedBigBang);
            }
            (ProtocolState::ColdStart, ProtocolState::Active)
            | (ProtocolState::Passive, ProtocolState::Active) => {
                events.push(ProtocolEvent::CliqueTestPassed);
            }
            (ProtocolState::ColdStart, ProtocolState::Listen) => {
                events.push(ProtocolEvent::ColdStartAbandoned);
            }
            (ProtocolState::Active, ProtocolState::Freeze)
            | (ProtocolState::Passive, ProtocolState::Freeze) => {
                events.push(ProtocolEvent::FrozeOnCliqueError);
            }
            (ProtocolState::Active, ProtocolState::Passive) => {
                events.push(ProtocolEvent::HostIntervention);
            }
            _ => {}
        }
        events
    }
}

impl fmt::Display for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}", self.node_id, self.state)?;
        if self.state.keeps_slot_counter() {
            write!(f, " slot={}", self.slot)?;
            write!(f, " {}", self.counters)?;
        }
        if self.state == ProtocolState::Listen {
            write!(
                f,
                " timeout={} big_bang={}",
                self.listen_timeout, self.big_bang
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::ChannelObservation;
    use tta_types::FrameKind;

    const SLOTS: u16 = 4;

    fn node(i: u8) -> Controller {
        Controller::new(NodeId::new(i), SLOTS)
    }

    fn silent() -> ChannelView {
        ChannelView::silent()
    }

    fn cold_start_frame(id: u16) -> ChannelView {
        ChannelView::both(ChannelObservation::frame(FrameKind::ColdStart, id))
    }

    fn cstate_frame(id: u16) -> ChannelView {
        ChannelView::both(ChannelObservation::frame(FrameKind::CState, id))
    }

    /// Drives a node through its deterministic protocol transitions.
    fn advance(mut c: Controller, views: &[ChannelView]) -> Controller {
        let choices = HostChoices::checking();
        for v in views {
            let succ = c.successors(v, &choices);
            let protocol: Vec<_> = succ
                .iter()
                .filter(|t| t.cause == TransitionCause::Protocol)
                .collect();
            assert_eq!(protocol.len(), 1, "expected deterministic step from {c}");
            c = protocol[0].next;
        }
        c
    }

    /// Bring a node to cold_start by eager startup and timeout expiry.
    fn to_cold_start(i: u8) -> Controller {
        let choices = HostChoices::eager();
        let mut c = node(i);
        // freeze → init → listen
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
        // count the timeout down
        let timeout = c.listen_timeout();
        for _ in 0..=timeout {
            c = c.successors(&silent(), &choices)[0].next;
        }
        assert_eq!(c.protocol_state(), ProtocolState::ColdStart);
        c
    }

    #[test]
    fn initial_state_is_freeze() {
        let c = node(0);
        assert_eq!(c.protocol_state(), ProtocolState::Freeze);
        assert_eq!(c.slot(), None);
        assert_eq!(c.send_intent(), SendIntent::Silent);
    }

    #[test]
    fn freeze_offers_staggering_when_enabled() {
        let c = node(0);
        let succ = c.successors(&silent(), &HostChoices::checking());
        assert_eq!(succ.len(), 2);
        assert!(succ
            .iter()
            .any(|t| t.next.protocol_state() == ProtocolState::Init));
        assert!(succ
            .iter()
            .any(|t| t.next.protocol_state() == ProtocolState::Freeze));
        let eager = c.successors(&silent(), &HostChoices::eager());
        assert_eq!(eager.len(), 1);
        assert_eq!(eager[0].next.protocol_state(), ProtocolState::Init);
    }

    #[test]
    fn await_and_test_reachable_only_when_enabled() {
        let c = node(0);
        let with = c.successors(
            &silent(),
            &HostChoices {
                allow_await_test: true,
                ..HostChoices::checking()
            },
        );
        assert!(with
            .iter()
            .any(|t| t.next.protocol_state() == ProtocolState::Await));
        assert!(with
            .iter()
            .any(|t| t.next.protocol_state() == ProtocolState::Test));
        let without = c.successors(&silent(), &HostChoices::checking());
        assert!(without.iter().all(|t| !t.next.protocol_state().is_inert()));
    }

    #[test]
    fn listen_timeout_is_slots_plus_own_slot() {
        let choices = HostChoices::eager();
        let mut c = node(2);
        c = c.successors(&silent(), &choices)[0].next; // init
        c = c.successors(&silent(), &choices)[0].next; // listen
        assert_eq!(c.listen_timeout(), SLOTS + 3);
    }

    #[test]
    fn timeout_expiry_starts_cold_start_in_own_slot() {
        let c = to_cold_start(0);
        assert_eq!(c.slot(), Some(SlotIndex::new(1)));
        assert_eq!(c.send_intent(), SendIntent::ColdStart { id: 1 });
    }

    #[test]
    fn traffic_resets_listen_timeout() {
        let choices = HostChoices::eager();
        let mut c = node(0);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        let initial = c.listen_timeout();
        c = advance(c, &[silent(), silent()]);
        assert_eq!(c.listen_timeout(), initial - 2);
        // A regular frame resets the countdown.
        let other = ChannelView::both(ChannelObservation::frame(FrameKind::Other, 2));
        c = advance(c, &[other]);
        assert_eq!(c.listen_timeout(), initial);
    }

    #[test]
    fn first_cold_start_frame_arms_big_bang_only() {
        let c0 = node(1);
        let choices = HostChoices::eager();
        let mut c = c0.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        assert!(!c.big_bang_armed());
        let c = advance(c, &[cold_start_frame(1)]);
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
        assert!(c.big_bang_armed());
    }

    #[test]
    fn second_cold_start_frame_integrates() {
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        let c = advance(c, &[cold_start_frame(1), cold_start_frame(1)]);
        assert_eq!(c.protocol_state(), ProtocolState::Passive);
        // Adopted id_on_bus + 1.
        assert_eq!(c.slot(), Some(SlotIndex::new(2)));
    }

    #[test]
    fn cstate_frame_integrates_immediately() {
        let choices = HostChoices::eager();
        let mut c = node(2);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        let c = advance(c, &[cstate_frame(4)]);
        assert_eq!(c.protocol_state(), ProtocolState::Passive);
        // id 4 is the last slot; wraps to 1.
        assert_eq!(c.slot(), Some(SlotIndex::new(1)));
    }

    #[test]
    fn integration_choice_is_nondeterministic_across_channels() {
        let choices = HostChoices::checking();
        let mut c = node(1);
        c = c.successors(&silent(), &HostChoices::eager())[0]
            .next
            .successors(&silent(), &HostChoices::eager())[0]
            .next;
        let view = ChannelView::new(
            ChannelObservation::frame(FrameKind::CState, 2),
            ChannelObservation::frame(FrameKind::CState, 3),
        );
        let succ = c.successors(&view, &choices);
        let slots: std::collections::HashSet<_> =
            succ.iter().filter_map(|t| t.next.slot()).collect();
        assert_eq!(slots.len(), 2, "both integration targets enumerated");
    }

    #[test]
    fn unconsumed_cold_start_frame_keeps_node_listening() {
        // Even with timeout at zero, a cold-start frame on the bus (not
        // usable because big_bang is not armed) keeps the node in listen.
        let choices = HostChoices::eager();
        let mut c = node(0);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        let timeout = c.listen_timeout();
        for _ in 0..timeout {
            c = advance(c, &[silent()]);
        }
        assert_eq!(c.listen_timeout(), 0);
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
        // big_bang gets armed by this frame but the node must stay.
        let c2 = advance(c, &[cold_start_frame(1)]);
        assert_eq!(c2.protocol_state(), ProtocolState::Listen);
    }

    #[test]
    fn lone_cold_starter_resends_then_gives_up() {
        let mut c = to_cold_start(0);
        // Fruitless rounds keep the node cold-starting (own send counts
        // agreed = 1) until the bounded retry limit sends it back to
        // listen, where its unique timeout breaks cold-start contention.
        for round in 1..=u16::from(crate::MAX_COLD_START_ROUNDS) {
            for _ in 0..SLOTS {
                c = advance(c, &[silent()]);
            }
            if round < u16::from(crate::MAX_COLD_START_ROUNDS) {
                assert_eq!(
                    c.protocol_state(),
                    ProtocolState::ColdStart,
                    "round {round}"
                );
                assert_eq!(c.cold_start_rounds(), round as u8);
                assert_eq!(c.send_intent(), SendIntent::ColdStart { id: 1 });
            }
        }
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
        assert_eq!(c.listen_timeout(), c.listen_timeout_init());
    }

    #[test]
    fn cold_starter_goes_active_when_joined() {
        let mut c = to_cold_start(0);
        // Own send in slot 1, then a correct C-state frame in slot 3.
        c = advance(c, &[silent()]); // slot 1 → 2
        c = advance(c, &[silent()]); // slot 2 → 3
        c = advance(c, &[cstate_frame(3)]); // slot 3 → 4
        c = advance(c, &[silent()]); // slot 4 → 1, test
        assert_eq!(c.protocol_state(), ProtocolState::Active);
        assert_eq!(c.send_intent(), SendIntent::CStateFrame { id: 1 });
    }

    #[test]
    fn cold_starter_contested_falls_back_to_listen() {
        let mut c = to_cold_start(0);
        c = advance(c, &[silent()]); // own send
        c = advance(c, &[cstate_frame(1)]); // wrong position → failed
        c = advance(c, &[cstate_frame(1)]); // failed again
        c = advance(c, &[silent()]); // round ends, test: 1 agreed vs 2 failed
        assert_eq!(c.protocol_state(), ProtocolState::Listen);
        assert_eq!(c.listen_timeout(), c.listen_timeout_init());
    }

    #[test]
    fn passive_node_promotes_on_majority() {
        // Node B integrates with slot 2, then sees correct traffic.
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        c = advance(c, &[cold_start_frame(1), cold_start_frame(1)]);
        assert_eq!(c.slot(), Some(SlotIndex::new(2)));
        // Own slot is 2: first test fires immediately with no traffic —
        // node must stay passive, not freeze.
        c = advance(c, &[silent()]); // slot 2 → 3 (own slot is 2; test ran at entry? no: test runs when slot' == own)
                                     // Correct frames in slots 3, 4, 1 → majority at next test.
        c = advance(c, &[cstate_frame(3)]);
        c = advance(c, &[cstate_frame(4)]);
        c = advance(c, &[cstate_frame(1)]); // slot' == 2 → test
        assert_eq!(c.protocol_state(), ProtocolState::Active);
    }

    #[test]
    fn passive_node_acquires_its_slot_even_in_silence() {
        // A freshly integrated node must begin transmitting at its own
        // slot — otherwise a lone cold-starter never hears a response,
        // exhausts its bounded retries and restarts on a fresh phase,
        // stranding the integrator.
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        c = advance(c, &[cold_start_frame(1), cold_start_frame(1)]);
        assert_eq!(c.protocol_state(), ProtocolState::Passive);
        let mut promoted = false;
        for _ in 0..SLOTS {
            c = advance(c, &[silent()]);
            if c.protocol_state() == ProtocolState::Active {
                promoted = true;
                break;
            }
        }
        assert!(promoted, "integrator must acquire its slot within a round");
        assert_eq!(c.slot(), Some(SlotIndex::new(c.own_slot())));
    }

    #[test]
    fn passive_node_freezes_in_minority() {
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        c = advance(c, &[cold_start_frame(1), cold_start_frame(1)]);
        assert_eq!(c.slot(), Some(SlotIndex::new(2)));
        // Frames whose position disagrees with B's counter, all round.
        c = advance(c, &[cstate_frame(4)]); // believed 2 → failed
        c = advance(c, &[cstate_frame(4)]); // believed 3 → failed
        c = advance(c, &[cstate_frame(1)]); // believed 4 → failed
        c = advance(c, &[cstate_frame(4)]); // believed 1 → failed, slot'=2 → test
        assert_eq!(c.protocol_state(), ProtocolState::Freeze);
    }

    #[test]
    fn active_node_survives_on_own_sends() {
        let mut c = to_cold_start(0);
        c = advance(c, &[silent()]);
        c = advance(c, &[silent()]);
        c = advance(c, &[cstate_frame(3)]);
        c = advance(c, &[silent()]);
        assert_eq!(c.protocol_state(), ProtocolState::Active);
        // Alone on the bus: own send keeps agreed at 1 > 0 failed.
        for _ in 0..3 * SLOTS {
            c = advance(c, &[silent()]);
        }
        assert_eq!(c.protocol_state(), ProtocolState::Active);
    }

    #[test]
    fn active_node_freezes_when_outvoted() {
        let mut c = to_cold_start(0);
        c = advance(c, &[silent()]);
        c = advance(c, &[silent()]);
        c = advance(c, &[cstate_frame(3)]);
        c = advance(c, &[silent()]);
        assert_eq!(c.protocol_state(), ProtocolState::Active);
        // A round where everything it hears disagrees: own send (agreed=1)
        // plus three incorrect frames (failed=3).
        c = advance(c, &[silent()]); // own slot 1
        c = advance(c, &[cstate_frame(1)]); // believed 2 → failed
        c = advance(c, &[cstate_frame(1)]); // believed 3 → failed
        c = advance(c, &[cstate_frame(1)]); // believed 4 → failed; test at wrap
        assert_eq!(c.protocol_state(), ProtocolState::Freeze);
    }

    #[test]
    fn host_shutdown_is_gated_and_tagged() {
        let mut c = to_cold_start(0);
        for _ in 0..SLOTS {
            c = advance(c, &[silent()]);
        }
        let c = {
            let mut x = c;
            x = advance(x, &[silent()]);
            x = advance(x, &[silent()]);
            x = advance(x, &[cstate_frame(3)]);
            advance(x, &[silent()])
        };
        assert_eq!(c.protocol_state(), ProtocolState::Active);
        let gated = c.successors(&silent(), &HostChoices::checking());
        assert!(gated
            .iter()
            .all(|t| t.next.protocol_state() != ProtocolState::Freeze));
        let open = c.successors(
            &silent(),
            &HostChoices {
                allow_shutdown: true,
                ..HostChoices::checking()
            },
        );
        let host_freeze = open
            .iter()
            .find(|t| t.next.protocol_state() == ProtocolState::Freeze)
            .expect("host shutdown enumerated");
        assert_eq!(host_freeze.cause, TransitionCause::Host);
    }

    #[test]
    fn events_describe_integration() {
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        let armed = advance(c, &[cold_start_frame(1)]);
        assert!(c
            .events(&cold_start_frame(1), &armed)
            .contains(&ProtocolEvent::ArmedBigBang));
        let integrated = advance(armed, &[cold_start_frame(1)]);
        assert!(armed
            .events(&cold_start_frame(1), &integrated)
            .contains(&ProtocolEvent::IntegratedOnColdStart { id: 1 }));
    }

    #[test]
    fn events_describe_freeze() {
        let choices = HostChoices::eager();
        let mut c = node(1);
        c = c.successors(&silent(), &choices)[0].next;
        c = c.successors(&silent(), &choices)[0].next;
        c = advance(c, &[cold_start_frame(1), cold_start_frame(1)]);
        let mut prev = c;
        for _ in 0..4 {
            let next = advance(prev, &[cstate_frame(4)]);
            if next.protocolstate_is_freeze() {
                assert!(prev
                    .events(&cstate_frame(4), &next)
                    .contains(&ProtocolEvent::FrozeOnCliqueError));
                return;
            }
            prev = next;
        }
        panic!("node never froze");
    }

    #[test]
    fn display_is_informative() {
        let c = to_cold_start(0);
        let s = c.to_string();
        assert!(s.contains("cold_start") && s.contains("slot=1"));
    }

    #[test]
    #[should_panic(expected = "no slot")]
    fn node_outside_round_is_rejected() {
        let _ = Controller::new(NodeId::new(4), 4);
    }

    impl Controller {
        fn protocolstate_is_freeze(&self) -> bool {
            self.protocol_state() == ProtocolState::Freeze
        }
    }
}
