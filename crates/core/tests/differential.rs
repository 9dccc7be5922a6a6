//! Differential tests: every way of running the explorer must agree on
//! every paper experiment.
//!
//! The explorer at several thread counts, and the identity-codec path
//! (no bit packing), are run over the E1–E4 configurations of
//! EXPERIMENTS.md. Every thread count runs the same layer step, so
//! agreement between them alone proves little: each configuration's
//! verdict, `states_explored` (layers are completed even when a
//! violation is found), `transitions`, `depth_reached` and
//! counterexample length are pinned to the values the former
//! sequential explorer produced.

use tta_core::{verify_cluster_with, CheckStrategy, ClusterConfig, ClusterModel, ClusterState};
use tta_guardian::CouplerAuthority;
use tta_modelcheck::{ExploreStats, Explorer, StateCodec, Verdict};

/// The configurations behind experiments E1–E4.
fn experiment_configs() -> Vec<(&'static str, ClusterConfig)> {
    vec![
        (
            "E1/passive",
            ClusterConfig::paper(CouplerAuthority::Passive),
        ),
        (
            "E1/time-windows",
            ClusterConfig::paper(CouplerAuthority::TimeWindows),
        ),
        (
            "E1/small-shifting",
            ClusterConfig::paper(CouplerAuthority::SmallShifting),
        ),
        (
            "E2/full-shifting",
            ClusterConfig::paper(CouplerAuthority::FullShifting),
        ),
        (
            "E3/cold-start-trace",
            ClusterConfig::paper_trace_cold_start(),
        ),
        ("E4/cstate-trace", ClusterConfig::paper_trace_cstate()),
    ]
}

/// `(verdict, states_explored, transitions, depth_reached,
/// counterexample length)` per experiment, as the former sequential
/// explorer reported them.
fn pinned(name: &str) -> (Verdict, u64, u64, u64, Option<usize>) {
    match name {
        "E1/passive" | "E1/time-windows" | "E1/small-shifting" => {
            (Verdict::Holds, 40_055, 222_993, 34, None)
        }
        "E2/full-shifting" => (Verdict::Violated, 14_488, 74_228, 11, Some(11)),
        "E3/cold-start-trace" => (Verdict::Violated, 28_567, 145_093, 14, Some(14)),
        "E4/cstate-trace" => (Verdict::Violated, 24_388, 131_398, 15, Some(15)),
        _ => unreachable!("no pin for {name}"),
    }
}

#[test]
fn every_thread_count_reproduces_the_pinned_experiments() {
    for (name, config) in experiment_configs() {
        for strategy in [
            CheckStrategy::Bfs,
            CheckStrategy::ParallelBfs { threads: 2 },
            CheckStrategy::ParallelBfs { threads: 4 },
        ] {
            let report = verify_cluster_with(&config, strategy);
            let stats = report.stats;
            assert_eq!(
                (
                    report.verdict,
                    stats.states_explored,
                    stats.transitions,
                    stats.depth_reached,
                    report.counterexample_len(),
                ),
                pinned(name),
                "{name}, {strategy:?}"
            );
        }
    }
}

#[test]
fn compact_codec_agrees_with_identity_exploration() {
    // The verify harness routes through the bit-packing codec; explore
    // the raw model (identity codec) and compare. Identical semantics,
    // different visited-set representation.
    for (name, config) in experiment_configs() {
        let compact = verify_cluster_with(&config, CheckStrategy::Bfs);
        let model = ClusterModel::new(config);
        let identity = Explorer::new().check(&model, |s: &ClusterState| s.property_holds());
        assert_eq!(compact.verdict, identity.verdict, "{name}: verdict");
        assert_eq!(
            compact.stats.states_explored, identity.stats.states_explored,
            "{name}: states explored"
        );
        assert_eq!(
            compact.counterexample_len(),
            identity
                .counterexample
                .as_ref()
                .map(tta_modelcheck::Trace::transition_count),
            "{name}: counterexample length"
        );
        // The whole point of the codec: fewer resident bytes per state.
        // Compare per-state payloads directly — Vec capacity rounding and
        // the hash-index cost are identical on both paths, so they only
        // add noise. A packed state is 72 flat bytes; an identity-interned
        // ClusterState is its inline struct plus the Vec<Controller> heap
        // payload it drags along (before per-allocation malloc overhead,
        // which the flat encoding avoids entirely).
        let compact_payload = std::mem::size_of::<tta_core::CompactState>() as u64;
        let identity_payload = std::mem::size_of::<ClusterState>() as u64
            + config.nodes as u64 * std::mem::size_of::<tta_protocol::Controller>() as u64;
        assert!(
            compact_payload < identity_payload,
            "{name}: compact {compact_payload} bytes/state vs identity {identity_payload}"
        );
        // The word arena stores only each state's live words, so
        // per-state bytes sit *below* the 72-byte full width — but never
        // below the per-state floor (a parent link and an index slot).
        assert!(
            compact.stats.bytes_per_state() >= 12.0,
            "{name}: implausible accounting {}",
            compact.stats.bytes_per_state()
        );
    }
}

/// Everything `ExploreStats` records but wall time and the footprint.
fn deterministic(stats: &ExploreStats) -> ExploreStats {
    ExploreStats {
        duration: std::time::Duration::ZERO,
        visited_bytes: 0,
        ..*stats
    }
}

#[test]
fn word_arena_traces_are_byte_identical() {
    // The word arena stores each state's live words and decodes by
    // zero-filling the rest: its counterexample must be exactly the one
    // the plain arena stored outright — state for state, and word for
    // word through the packing codec — at every thread count. A 2-node
    // full-shifting cluster violates the property within ~200 states,
    // so this stays fast.
    let config = ClusterConfig {
        nodes: 2,
        ..ClusterConfig::paper(CouplerAuthority::FullShifting)
    };
    let model = ClusterModel::new(config);
    let codec = tta_core::ClusterCodec::new(&config);
    let invariant = |s: &ClusterState| s.property_holds();
    let plain = Explorer::new().check_with_codec(&model, &codec, invariant);
    assert_eq!(plain.verdict, Verdict::Violated);
    let plain_trace = plain.counterexample.expect("violated ⇒ trace");
    for threads in [1, 2, 4] {
        let words = Explorer::new()
            .threads(threads)
            .check_with_delta_codec(&model, &codec, invariant);
        assert_eq!(words.verdict, Verdict::Violated, "{threads} threads");
        assert_eq!(
            deterministic(&words.stats),
            deterministic(&plain.stats),
            "{threads} threads"
        );
        let trace = words.counterexample.expect("violated ⇒ trace");
        assert_eq!(trace.states(), plain_trace.states(), "{threads} threads");
        for (a, b) in plain_trace.states().iter().zip(trace.states()) {
            assert_eq!(
                codec.encode(a),
                codec.encode(b),
                "{threads} threads: packed words diverged"
            );
        }
    }
}

#[test]
fn word_arena_shrinks_the_visited_set() {
    // Same exploration, two storage schemes: the word arena must agree
    // with the plain arena on everything observable and undercut its
    // memory accounting at every thread count (the plain arena stores
    // 72 flat bytes per state before index overhead; the word arena
    // the two live controller words of a 4-node small-shifting state).
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    let model = ClusterModel::new(config);
    let codec = tta_core::ClusterCodec::new(&config);
    let invariant = |s: &ClusterState| s.property_holds();
    let plain = Explorer::new().check_with_codec(&model, &codec, invariant);
    for threads in [1, 2, 4] {
        let words = Explorer::new()
            .threads(threads)
            .check_with_delta_codec(&model, &codec, invariant);
        assert_eq!(words.verdict, plain.verdict, "{threads} threads");
        assert_eq!(
            deterministic(&words.stats),
            deterministic(&plain.stats),
            "{threads} threads"
        );
        assert!(
            words.stats.visited_bytes < plain.stats.visited_bytes,
            "{threads} threads: word arena {} bytes vs plain {} bytes",
            words.stats.visited_bytes,
            plain.stats.visited_bytes
        );
    }
}
