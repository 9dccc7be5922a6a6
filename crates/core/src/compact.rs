//! Bit-packed encoding of [`ClusterState`] for the model checker's
//! visited set.
//!
//! A [`ClusterState`] carries a `Vec<Controller>` — one heap allocation
//! per clone — while its information content is tiny: everything a
//! reachable controller can be fits in 26 bits, and the shared coupler /
//! monitor state in another 24. [`ClusterCodec`] packs the whole global
//! state into a fixed `[u64; 9]` ([`CompactState`]) with **zero** heap
//! allocations on the encode path (the path that runs once per
//! generated transition).
//!
//! The per-node static fields (`node_id`, `slots_per_round`) are *not*
//! encoded — they are constants of the [`ClusterConfig`] the codec is
//! built from, and node `i` always occupies lane `i`.
//!
//! Layout, two controllers per word (`lane = node / 2`, shift
//! `26 * (node % 2)`):
//!
//! ```text
//! bits  0..4   protocol state (9 variants)
//! bits  4..9   slot - 1        (slots_per_round ≤ 16)
//! bits  9..13  agreed counter  (saturates at 15)
//! bits 13..17  failed counter  (saturates at 15)
//! bit  17      big-bang armed
//! bits 18..24  listen timeout  (≤ 2 · slots_per_round ≤ 32)
//! bits 24..26  cold-start rounds (< 3)
//! ```
//!
//! The controller words of an `n`-node cluster are words
//! `0..ceil(n/2)`; word `ceil(n/2)` holds the shared state: both
//! coupler buffers (5-bit id + 3-bit kind each), the saturating
//! out-of-slot counter (3 bits) and the property monitor (5 bits, `0` =
//! no victim). Every word past it is zero, so a state's live words form
//! a prefix of at most `ceil(n/2) + 1` words — three on 4 nodes, four on
//! 5 — which is all the word arena ([`tta_modelcheck::WordArena`])
//! stores of it. On the small-shifting spaces of 4 and 5 nodes the
//! shared word stays zero, and a state lives in its controller words
//! alone.

use crate::config::ClusterConfig;
use crate::state::ClusterState;
use tta_guardian::BufferedFrame;
use tta_modelcheck::StateCodec;
use tta_protocol::{CliqueCounters, Controller, ProtocolState};
use tta_types::{FrameKind, NodeId};

/// Words in a [`CompactState`]: up to 8 controller words (two 26-bit
/// lanes each, 16 nodes max — the bound [`ClusterConfig::validate`]
/// enforces) plus one shared word.
const WORDS: usize = 9;

/// Bits per packed controller.
const CTRL_BITS: u32 = 26;

/// A bit-packed [`ClusterState`]: fixed-size, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompactState([u64; WORDS]);

/// Exposes the packed words to the word arena
/// ([`tta_modelcheck::WordArena`]), which stores only the live prefix of
/// the nine: `ceil(n/2) + 1` words at most on `n` nodes.
impl tta_modelcheck::WordEncoded for CompactState {
    const WORDS: usize = WORDS;

    #[inline]
    fn write_words(&self, out: &mut [u64]) {
        out.copy_from_slice(&self.0);
    }

    #[inline]
    fn from_words(words: &[u64]) -> Self {
        let mut packed = [0u64; WORDS];
        packed.copy_from_slice(words);
        CompactState(packed)
    }
}

/// The [`StateCodec`] between [`ClusterState`] and [`CompactState`].
///
/// Holds the [`ClusterConfig`] so decoding can restore the static
/// per-node fields the encoding omits.
#[derive(Debug, Clone, Copy)]
pub struct ClusterCodec {
    nodes: u8,
    slots_per_round: u16,
}

impl ClusterCodec {
    /// Builds the codec for a cluster configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`ClusterConfig::validate`]).
    #[must_use]
    #[inline]
    pub fn new(config: &ClusterConfig) -> Self {
        config.validate();
        ClusterCodec {
            nodes: config.nodes as u8,
            slots_per_round: config.slots_per_round(),
        }
    }

    /// Index of the shared (buffers / counter / monitor) word: the one
    /// after the last controller word.
    fn shared_word(&self) -> usize {
        usize::from(self.nodes).div_ceil(2)
    }

    fn pack_controller(c: &Controller) -> u64 {
        let slot = c.slot().map_or(1, tta_types::SlotIndex::get);
        let counters = c.counters();
        u64::from(state_code(c.protocol_state()))
            | u64::from(slot - 1) << 4
            | u64::from(counters.agreed()) << 9
            | u64::from(counters.failed()) << 13
            | u64::from(c.big_bang_armed()) << 17
            | u64::from(c.listen_timeout()) << 18
            | u64::from(c.cold_start_rounds()) << 24
    }

    fn unpack_controller(&self, node: u8, bits: u64) -> Controller {
        Controller::from_parts(
            NodeId::new(node),
            self.slots_per_round,
            state_from_code((bits & 0xF) as u8),
            (bits >> 4 & 0x1F) as u16 + 1,
            CliqueCounters::from_counts((bits >> 9 & 0xF) as u8, (bits >> 13 & 0xF) as u8),
            bits >> 17 & 1 != 0,
            (bits >> 18 & 0x3F) as u16,
            (bits >> 24 & 0x3) as u8,
        )
    }

    fn pack_buffer(buffer: BufferedFrame) -> u64 {
        debug_assert!(buffer.id < 32, "frame ids are slot numbers (≤ 16)");
        u64::from(buffer.id) | u64::from(kind_code(buffer.kind)) << 5
    }

    fn unpack_buffer(bits: u64) -> BufferedFrame {
        BufferedFrame {
            id: (bits & 0x1F) as u16,
            kind: kind_from_code((bits >> 5 & 0x7) as u8),
        }
    }
}

impl StateCodec for ClusterCodec {
    type State = ClusterState;
    type Encoded = CompactState;

    fn encode(&self, state: &ClusterState) -> CompactState {
        debug_assert_eq!(
            state.nodes().len(),
            usize::from(self.nodes),
            "state does not belong to this codec's cluster"
        );
        let mut words = [0u64; WORDS];
        for (i, controller) in state.nodes().iter().enumerate() {
            words[i / 2] |= Self::pack_controller(controller) << (CTRL_BITS * (i as u32 % 2));
        }
        let buffers = state.coupler_buffers();
        words[self.shared_word()] = Self::pack_buffer(buffers[0])
            | Self::pack_buffer(buffers[1]) << 8
            | u64::from(state.out_of_slot_used()) << 16
            | state
                .frozen_victim()
                .map_or(0, |v| u64::from(v.index()) + 1)
                << 19;
        CompactState(words)
    }

    fn decode(&self, encoded: &CompactState) -> ClusterState {
        let words = encoded.0;
        let nodes = (0..self.nodes)
            .map(|i| {
                let lane = words[usize::from(i) / 2] >> (CTRL_BITS * (u32::from(i) % 2));
                self.unpack_controller(i, lane & ((1 << CTRL_BITS) - 1))
            })
            .collect();
        let shared = words[self.shared_word()];
        let victim = shared >> 19 & 0x1F;
        ClusterState::with_parts(
            nodes,
            [
                Self::unpack_buffer(shared & 0xFF),
                Self::unpack_buffer(shared >> 8 & 0xFF),
            ],
            (shared >> 16 & 0x7) as u8,
            (victim != 0).then(|| NodeId::new(victim as u8 - 1)),
        )
    }
}

fn state_code(state: ProtocolState) -> u8 {
    match state {
        ProtocolState::Freeze => 0,
        ProtocolState::Init => 1,
        ProtocolState::Listen => 2,
        ProtocolState::ColdStart => 3,
        ProtocolState::Active => 4,
        ProtocolState::Passive => 5,
        ProtocolState::Await => 6,
        ProtocolState::Test => 7,
        ProtocolState::Download => 8,
    }
}

fn state_from_code(code: u8) -> ProtocolState {
    match code {
        0 => ProtocolState::Freeze,
        1 => ProtocolState::Init,
        2 => ProtocolState::Listen,
        3 => ProtocolState::ColdStart,
        4 => ProtocolState::Active,
        5 => ProtocolState::Passive,
        6 => ProtocolState::Await,
        7 => ProtocolState::Test,
        8 => ProtocolState::Download,
        _ => unreachable!("invalid protocol-state code {code}"),
    }
}

fn kind_code(kind: FrameKind) -> u8 {
    match kind {
        FrameKind::None => 0,
        FrameKind::ColdStart => 1,
        FrameKind::CState => 2,
        FrameKind::Bad => 3,
        FrameKind::Other => 4,
    }
}

fn kind_from_code(code: u8) -> FrameKind {
    match code {
        0 => FrameKind::None,
        1 => FrameKind::ColdStart,
        2 => FrameKind::CState,
        3 => FrameKind::Bad,
        4 => FrameKind::Other,
        _ => unreachable!("invalid frame-kind code {code}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ClusterModel;
    use tta_guardian::CouplerAuthority;

    fn codec() -> ClusterCodec {
        ClusterCodec::new(&ClusterConfig::paper(CouplerAuthority::FullShifting))
    }

    #[test]
    fn initial_state_round_trips() {
        let model = ClusterModel::new(ClusterConfig::paper(CouplerAuthority::FullShifting));
        let state = model.initial_state();
        let codec = codec();
        let encoded = codec.encode(&state);
        assert_eq!(codec.decode(&encoded), state);
        assert_eq!(codec.encode(&codec.decode(&encoded)), encoded);
    }

    #[test]
    fn states_with_buffers_and_victim_round_trip() {
        let nodes: Vec<_> = NodeId::first(4).map(|id| Controller::new(id, 4)).collect();
        let state = ClusterState::with_parts(
            nodes,
            [
                BufferedFrame {
                    id: 3,
                    kind: FrameKind::CState,
                },
                BufferedFrame {
                    id: 1,
                    kind: FrameKind::ColdStart,
                },
            ],
            5,
            Some(NodeId::new(2)),
        );
        let codec = codec();
        assert_eq!(codec.decode(&codec.encode(&state)), state);
    }

    #[test]
    fn distinct_reachable_states_encode_distinctly() {
        // Walk two BFS layers of the real model and check that encoding
        // is injective on everything seen.
        let model = ClusterModel::new(ClusterConfig::paper(CouplerAuthority::FullShifting));
        let codec = codec();
        let mut states = vec![model.initial_state()];
        let mut frontier = states.clone();
        for _ in 0..2 {
            let mut next = Vec::new();
            for s in &frontier {
                for (succ, _) in model.expand(s) {
                    if !states.contains(&succ) {
                        states.push(succ.clone());
                        next.push(succ);
                    }
                }
            }
            frontier = next;
        }
        assert!(states.len() > 16, "walk reached a non-trivial set");
        let encodings: std::collections::HashSet<CompactState> =
            states.iter().map(|s| codec.encode(s)).collect();
        assert_eq!(encodings.len(), states.len(), "encoding is injective");
        for s in &states {
            assert_eq!(&codec.decode(&codec.encode(s)), s, "round trip");
        }
    }

    /// Words up to the last non-zero one.
    fn live_prefix(encoded: &CompactState) -> usize {
        encoded
            .0
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |last| last + 1)
    }

    /// The live words of every encoded state form a prefix of
    /// `ceil(n/2) + 1` words — the controller words, then the shared
    /// word — at every cluster size the config accepts; the word arena's
    /// footprint rests on this layout. Each size walks three BFS layers
    /// from the initial state and from one whose coupler buffers hold
    /// frames (so the shared word is live), checking every state it
    /// generates and expanding the two widest of each layer: a full
    /// layer of 16 nodes holds 10^5 states.
    #[test]
    fn live_words_are_a_prefix_of_controller_and_shared_words() {
        for nodes in 2..=16 {
            let config = ClusterConfig {
                nodes,
                ..ClusterConfig::paper(CouplerAuthority::FullShifting)
            };
            let model = ClusterModel::new(config);
            let codec = ClusterCodec::new(&config);
            let prefix = nodes.div_ceil(2) + 1;
            let initial = model.initial_state();
            let with_shared = |victim| {
                ClusterState::with_parts(
                    initial.nodes().to_vec(),
                    [
                        BufferedFrame {
                            id: nodes as u16,
                            kind: FrameKind::CState,
                        },
                        BufferedFrame {
                            id: 1,
                            kind: FrameKind::ColdStart,
                        },
                    ],
                    5,
                    victim,
                )
            };
            let mut widest = 0;
            let mut check = |state: &ClusterState| {
                let encoded = codec.encode(state);
                assert_eq!(&codec.decode(&encoded), state, "{nodes} nodes: round trip");
                let live = live_prefix(&encoded);
                assert!(
                    live <= prefix,
                    "{nodes} nodes: word {live} is live in {encoded:?}"
                );
                widest = widest.max(live);
                live
            };
            check(&with_shared(Some(NodeId::new(nodes as u8 - 1))));
            let mut frontier = vec![initial.clone(), with_shared(None)];
            for state in &frontier {
                check(state);
            }
            for _ in 0..3 {
                let mut layer = Vec::new();
                for state in &frontier {
                    for (succ, _) in model.expand(state) {
                        layer.push((check(&succ), succ));
                    }
                }
                // Stable: ties keep generation order.
                layer.sort_by_key(|&(live, _)| std::cmp::Reverse(live));
                frontier = layer.into_iter().take(2).map(|(_, s)| s).collect();
            }
            assert_eq!(widest, prefix, "{nodes} nodes: the shared word went live");
        }
    }

    #[test]
    fn encoded_size_is_72_flat_bytes() {
        assert_eq!(std::mem::size_of::<CompactState>(), 72);
        assert_eq!(codec().encoded_size_hint(), 72);
    }

    #[test]
    fn sixteen_node_clusters_fit() {
        let config = ClusterConfig {
            nodes: 16,
            ..ClusterConfig::paper(CouplerAuthority::FullShifting)
        };
        let model = ClusterModel::new(config);
        let codec = ClusterCodec::new(&config);
        let state = model.initial_state();
        assert_eq!(codec.decode(&codec.encode(&state)), state);
    }

    #[test]
    fn protocol_state_codes_are_total_and_inverse() {
        for code in 0..9u8 {
            assert_eq!(state_code(state_from_code(code)), code);
        }
        for code in 0..5u8 {
            assert_eq!(kind_code(kind_from_code(code)), code);
        }
    }
}
