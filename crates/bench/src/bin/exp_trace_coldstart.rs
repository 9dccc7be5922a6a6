//! Experiment E3 — Section 5.2 trace 1: the cold-start duplication
//! counterexample.
//!
//! With the paper's constraint of at most one out-of-slot error, the
//! shortest counterexample has a faulty full-shifting coupler replay a
//! buffered **cold-start frame**; a healthy node's clique-avoidance test
//! then freezes it during startup/integration.

use tta_bench::{fmt_duration, heading, timed};
use tta_core::{narrate_compressed, verify_cluster, ClusterConfig, ClusterModel, Verdict};

fn main() {
    heading("E3 — counterexample trace 1: duplicated cold-start frame (≤1 out-of-slot error)");
    let config = ClusterConfig::paper_trace_cold_start();
    println!("configuration: {config}\n");

    let (report, elapsed) = timed(|| verify_cluster(&config));
    assert_eq!(
        report.verdict,
        Verdict::Violated,
        "the paper's violation must reproduce"
    );
    let trace = report.counterexample.expect("counterexample trace");

    println!(
        "verdict: VIOLATED — shortest trace of {} slot transitions, found in {} \
         ({} states explored)\n",
        trace.transition_count(),
        fmt_duration(elapsed),
        report.stats.states_explored
    );

    let model = ClusterModel::new(config);
    for line in narrate_compressed(&model, &trace) {
        println!("{line}");
    }

    println!("\nfinal state: {}", trace.violating_state());
    println!(
        "\npaper (trace 1, abridged): \"A faulty star coupler replays the previous cold\n\
         start frame. Node B integrates on it, in compliance with the big bang\n\
         requirements. … Node B freezes due to a clique avoidance error.\"\n\
         Both traces are generated well under the paper's one-minute budget."
    );
}
