//! Footprint regression test for the visited set.
//!
//! A 101 × 101 grid (10,201 states) explored through a one-word packing
//! codec, with both arenas. Per state each holds the 8-byte encoding (the
//! word arena as a one-word row, with no per-state record beside it), a
//! 4-byte parent link and its share of the 8-byte index slots. The rows
//! and parents count as held (12 B/state) and the index at its full
//! 16,384 slots (1.6 per state, 12.8 B/state), so both arenas cost
//! 24.8 B/state.
//!
//! The bounds below allow each structure up to 2 slots per state. A
//! hash index of 32 bytes per bucket — a `(u64 hash, bucket)` map entry
//! — costs over 32 B/state on its own and fails both, and so does an
//! 8-byte record per state beside the rows, as the delta arena this one
//! replaced kept (45.0 B/state here).

use tta_modelcheck::{Explorer, StateCodec, TransitionSystem, Verdict};

/// A monotone grid walk: from `(x, y)` step right or up.
struct Grid {
    bound: u32,
}

impl TransitionSystem for Grid {
    type State = (u32, u32);

    fn initial_states(&self) -> Vec<(u32, u32)> {
        vec![(0, 0)]
    }

    fn successors(&self, s: &(u32, u32), out: &mut Vec<(u32, u32)>) {
        if s.0 < self.bound {
            out.push((s.0 + 1, s.1));
        }
        if s.1 < self.bound {
            out.push((s.0, s.1 + 1));
        }
    }
}

/// Packs a grid coordinate into one word.
#[derive(Debug, Clone, Copy)]
struct PackCodec;

impl StateCodec for PackCodec {
    type State = (u32, u32);
    type Encoded = u64;

    fn encode(&self, s: &(u32, u32)) -> u64 {
        u64::from(s.0) << 32 | u64::from(s.1)
    }

    fn decode(&self, e: &u64) -> (u32, u32) {
        ((e >> 32) as u32, *e as u32)
    }
}

const GRID: Grid = Grid { bound: 100 };

#[test]
fn plain_arena_stays_under_forty_bytes_per_state() {
    let outcome = Explorer::new().check_with_codec(&GRID, &PackCodec, |_: &(u32, u32)| true);
    assert_eq!(outcome.verdict, Verdict::Holds);
    assert_eq!(outcome.stats.states_explored, 101 * 101);
    // 2 × (8 encoding + 4 parent + 8 index).
    let bytes = outcome.stats.bytes_per_state();
    assert!(bytes <= 40.0, "plain arena costs {bytes:.1} B/state");
}

#[test]
fn word_arena_stays_under_forty_bytes_per_state() {
    let outcome = Explorer::new().check_with_delta_codec(&GRID, &PackCodec, |_: &(u32, u32)| true);
    assert_eq!(outcome.verdict, Verdict::Holds);
    assert_eq!(outcome.stats.states_explored, 101 * 101);
    // 2 × (8 row + 4 parent + 8 index).
    let bytes = outcome.stats.bytes_per_state();
    assert!(bytes <= 40.0, "word arena costs {bytes:.1} B/state");
}
