//! Experiment E4 — Section 5.2 trace 2: the C-state duplication
//! counterexample.
//!
//! Adding the paper's second constraint — the coupler may not duplicate
//! cold-start frames — forces the counterexample through a replayed
//! **C-state frame** instead ("The error may also be triggered by
//! duplicating a C-state frame").

use tta_bench::{fmt_duration, heading, timed};
use tta_core::{narrate_compressed, verify_cluster, ClusterConfig, ClusterModel, Verdict};

fn main() {
    heading(
        "E4 — counterexample trace 2: duplicated C-state frame (cold-start duplication forbidden)",
    );
    let config = ClusterConfig::paper_trace_cstate();
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
        "\npaper (trace 2, abridged): \"A faulty star coupler replicates the previous frame\n\
         into the next slot. Node D integrates on it … Node D freezes due to a clique\n\
         avoidance error.\" The constraint makes the trace slightly longer than trace 1,\n\
         as the paper observes."
    );
}
