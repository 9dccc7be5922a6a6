//! Asynchronous masquerading — the paper's Section 7 generalization.
//!
//! "The same type of masquerading failures could occur in a distributed,
//! asynchronous system because the underlying issue is not timing, but
//! rather identification. A central authority with access to the other
//! nodes' knowledge (e.g., identification methods) may have the ability
//! to introduce masquerading failures into a decentralized system,
//! whether that system is synchronous or asynchronous."
//!
//! This module makes that claim executable with a deliberately *timing-
//! free* system: clients announce their liveness through a central
//! store-and-forward relay; receivers track a roster of live peers purely
//! from the **identification** carried in messages (heartbeat expiry uses
//! logical receive counts, not clocks). A faulty relay that replays a
//! stored announcement resurrects a departed client in the rosters of
//! whoever hears the replay — masquerading without any TDMA, slot, or
//! clock in sight.

use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

/// A client identifier in the asynchronous demo.
pub type ClientId = u8;

/// Messages carry only identification — the async analogue of the
/// C-state/round-slot identity in TTP/C frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Message {
    /// "Client `id` is alive."
    Announce(ClientId),
    /// "Client `id` is leaving."
    Goodbye(ClientId),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    /// A client emits its periodic announcement.
    ClientAnnounce(ClientId),
    /// A client departs (emits Goodbye, stops announcing).
    ClientDepart(ClientId),
    /// The relay delivers a message to one receiver.
    Deliver { to: ClientId, msg: Message },
    /// The faulty relay replays its stored message to one receiver.
    Replay { to: ClientId },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    at: u64,
    seq: u64, // tie-breaker for deterministic ordering
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-client roster bookkeeping: liveness by identification only.
/// An entry expires after `expiry` *other* messages have been received
/// without hearing from the peer — a logical, not temporal, timeout.
#[derive(Debug, Clone, Default)]
struct Roster {
    last_heard: BTreeMap<ClientId, u64>,
    messages_received: u64,
    expiry: u64,
}

impl Roster {
    fn hear(&mut self, msg: Message) {
        self.messages_received += 1;
        match msg {
            Message::Announce(id) => {
                self.last_heard.insert(id, self.messages_received);
            }
            Message::Goodbye(id) => {
                self.last_heard.remove(&id);
            }
        }
    }

    fn live_peers(&self) -> BTreeSet<ClientId> {
        self.last_heard
            .iter()
            .filter(|(_, heard)| self.messages_received - **heard < self.expiry)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Configuration of the asynchronous masquerade demonstration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncMasqueradeDemo {
    /// Number of clients.
    pub clients: usize,
    /// Which client departs mid-run.
    pub departing: ClientId,
    /// Whether the central relay is faulty and replays a stored
    /// announcement of the departed client — to only *some* receivers
    /// (the replay happens on one of the redundant paths).
    pub relay_replays: bool,
}

impl AsyncMasqueradeDemo {
    /// A four-client demo where client 0 departs.
    #[must_use]
    pub fn new(relay_replays: bool) -> Self {
        AsyncMasqueradeDemo {
            clients: 4,
            departing: 0,
            relay_replays,
        }
    }

    /// Runs the scenario to quiescence and reports the rosters.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two clients are configured or the departing
    /// id is out of range.
    #[must_use]
    pub fn run(&self) -> AsyncOutcome {
        assert!(self.clients >= 2, "need at least two clients");
        assert!(
            (self.departing as usize) < self.clients,
            "departing client out of range"
        );
        let n = self.clients as u8;
        let mut queue: BinaryHeap<Event> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |queue: &mut BinaryHeap<Event>, at: u64, kind: EventKind| {
            queue.push(Event { at, seq, kind });
            seq += 1;
        };

        // Announcement schedule: every client announces at irregular,
        // client-specific intervals (asynchrony — no common period).
        for id in 0..n {
            let period = 7 + u64::from(id) * 3;
            for k in 0..12 {
                push(
                    &mut queue,
                    1 + u64::from(id) + k * period,
                    EventKind::ClientAnnounce(id),
                );
            }
        }
        // The departing client leaves after its fourth announcement.
        let depart_at = 1 + u64::from(self.departing) + 4 * (7 + u64::from(self.departing) * 3);
        push(
            &mut queue,
            depart_at,
            EventKind::ClientDepart(self.departing),
        );
        // The faulty relay replays its stored (mailbox) copy of the
        // departed client's announcement, repeatedly — a stuck buffer,
        // like the coupler's out_of_slot fault — but only on the paths to
        // some receivers.
        if self.relay_replays {
            for k in 0..24u64 {
                for to in 0..n {
                    if to != self.departing && to % 2 == 0 {
                        push(&mut queue, depart_at + 11 + 9 * k, EventKind::Replay { to });
                    }
                }
            }
        }

        let mut rosters: Vec<Roster> = (0..self.clients)
            .map(|_| Roster {
                expiry: 3 * self.clients as u64,
                ..Roster::default()
            })
            .collect();
        let mut departed: BTreeSet<ClientId> = BTreeSet::new();
        // Store-and-forward authority: one mailbox per sender (the
        // "recent data values" service of Section 6).
        let mut relay_store: BTreeMap<ClientId, Message> = BTreeMap::new();

        while let Some(event) = queue.pop() {
            match event.kind {
                EventKind::ClientAnnounce(id) => {
                    if departed.contains(&id) {
                        continue;
                    }
                    // The relay forwards to everyone else with per-path
                    // delays, and (store-and-forward authority) keeps a
                    // copy — the capability the fault exploits.
                    relay_store.insert(id, Message::Announce(id));
                    for to in 0..n {
                        if to != id {
                            push(
                                &mut queue,
                                event.at + 1 + u64::from(to % 3),
                                EventKind::Deliver {
                                    to,
                                    msg: Message::Announce(id),
                                },
                            );
                        }
                    }
                }
                EventKind::ClientDepart(id) => {
                    departed.insert(id);
                    for to in 0..n {
                        if to != id {
                            push(
                                &mut queue,
                                event.at + 1,
                                EventKind::Deliver {
                                    to,
                                    msg: Message::Goodbye(id),
                                },
                            );
                        }
                    }
                }
                EventKind::Deliver { to, msg } => {
                    rosters[to as usize].hear(msg);
                }
                EventKind::Replay { to } => {
                    // The replayed message carries the *original sender's*
                    // identification: pure masquerade.
                    if let Some(msg) = relay_store.get(&self.departing) {
                        rosters[to as usize].hear(*msg);
                    }
                }
            }
        }

        let ground_truth: BTreeSet<ClientId> = (0..n).filter(|id| !departed.contains(id)).collect();
        AsyncOutcome {
            rosters: rosters
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let mut peers = r.live_peers();
                    peers.insert(i as u8); // a client knows itself
                    peers
                })
                .collect(),
            ground_truth,
            departed,
        }
    }
}

/// Result of the asynchronous demonstration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncOutcome {
    /// Each client's final roster of live peers (including itself).
    pub rosters: Vec<BTreeSet<ClientId>>,
    /// The true set of live clients.
    pub ground_truth: BTreeSet<ClientId>,
    /// Clients that departed during the run.
    pub departed: BTreeSet<ClientId>,
}

impl AsyncOutcome {
    /// Whether all live clients agree on the roster.
    #[must_use]
    pub fn rosters_consistent(&self) -> bool {
        let live: Vec<&BTreeSet<ClientId>> = self
            .rosters
            .iter()
            .enumerate()
            .filter(|(i, _)| self.ground_truth.contains(&(*i as u8)))
            .map(|(_, r)| r)
            .collect();
        live.windows(2).all(|w| w[0] == w[1])
    }

    /// Clients whose roster contains a departed (masqueraded) peer.
    #[must_use]
    pub fn deceived_clients(&self) -> Vec<ClientId> {
        self.rosters
            .iter()
            .enumerate()
            .filter(|(i, roster)| {
                self.ground_truth.contains(&(*i as u8))
                    && roster.iter().any(|peer| self.departed.contains(peer))
            })
            .map(|(i, _)| i as u8)
            .collect()
    }
}

impl fmt::Display for AsyncOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ground truth live set: {:?}", self.ground_truth)?;
        for (i, roster) in self.rosters.iter().enumerate() {
            writeln!(f, "  client {i} sees: {roster:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_relay_converges_to_ground_truth() {
        let outcome = AsyncMasqueradeDemo::new(false).run();
        assert!(outcome.rosters_consistent(), "{outcome}");
        assert!(outcome.deceived_clients().is_empty(), "{outcome}");
        // Every live client's roster equals the true live set.
        for (i, roster) in outcome.rosters.iter().enumerate() {
            if outcome.ground_truth.contains(&(i as u8)) {
                assert_eq!(roster, &outcome.ground_truth, "client {i}: {outcome}");
            }
        }
    }

    #[test]
    fn replaying_relay_masquerades_the_departed_client() {
        let outcome = AsyncMasqueradeDemo::new(true).run();
        assert!(
            !outcome.deceived_clients().is_empty(),
            "the replay must resurrect the departed client somewhere: {outcome}"
        );
    }

    #[test]
    fn partial_replay_splits_the_rosters() {
        // The replay reaches only some receivers: the async analogue of
        // the clique split — inconsistent views without any timing fault.
        let outcome = AsyncMasqueradeDemo::new(true).run();
        assert!(!outcome.rosters_consistent(), "{outcome}");
    }

    #[test]
    fn departure_is_the_only_difference() {
        // Same scenario, no replay: consistent; with replay: not. The
        // central authority's buffering is the entire delta.
        let clean = AsyncMasqueradeDemo::new(false).run();
        let faulty = AsyncMasqueradeDemo::new(true).run();
        assert_eq!(clean.ground_truth, faulty.ground_truth);
        assert!(clean.rosters_consistent());
        assert!(!faulty.rosters_consistent());
    }

    #[test]
    #[should_panic(expected = "at least two clients")]
    fn single_client_is_rejected() {
        let demo = AsyncMasqueradeDemo {
            clients: 1,
            departing: 0,
            relay_replays: false,
        };
        let _ = demo.run();
    }
}
