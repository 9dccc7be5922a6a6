//! The paper's headline failure, end to end: a full-shifting star coupler
//! replays a buffered frame out of its slot and a healthy node freezes.
//!
//! Shown twice — first found exhaustively by the model checker (with the
//! paper's numbered narrative), then executed concretely in the
//! simulator.
//!
//! ```sh
//! cargo run --release --example faulty_coupler_replay
//! ```

use tta::core::{narrate_compressed, verify_cluster, ClusterConfig, ClusterModel, Verdict};
use tta::guardian::{CouplerAuthority, CouplerFaultMode};
use tta::sim::{
    FaultEvent, FaultPersistence, FaultPlan, FaultTarget, SimBuilder, SlotEvent, Topology,
};

fn main() {
    // --- 1. The model checker finds the failure and narrates it.
    println!("## 1. Model checker: shortest path to the failure (≤1 replay)\n");
    let config = ClusterConfig::paper_trace_cold_start();
    let report = verify_cluster(&config);
    assert_eq!(report.verdict, Verdict::Violated);
    let trace = report.counterexample.expect("violated ⇒ counterexample");
    let model = ClusterModel::new(config);
    for line in narrate_compressed(&model, &trace) {
        println!("{line}");
    }
    println!(
        "\n(found in {:?}, {} states — the paper reports \"less than a minute\")\n",
        report.stats.duration, report.stats.states_explored
    );

    // --- 2. The simulator executes the same fault against a starting cluster.
    println!("## 2. Simulator: replaying frames while nodes integrate\n");
    let plan = FaultPlan::none().with(FaultEvent {
        target: FaultTarget::Coupler {
            channel: 0,
            mode: CouplerFaultMode::OutOfSlot,
        },
        from_slot: 12,
        to_slot: 200,
        persistence: FaultPersistence::Transient,
    });
    let sim_report = SimBuilder::new(4)
        .topology(Topology::Star)
        .authority(CouplerAuthority::FullShifting)
        .slots(200)
        .plan(plan)
        .build()
        .run();
    let replays = sim_report
        .log()
        .count(|e| matches!(e, SlotEvent::CouplerReplay { .. }));
    println!("{sim_report}");
    println!("coupler replays injected: {replays}");
    assert!(
        !sim_report.healthy_frozen().is_empty() || !sim_report.cluster_started(),
        "the replay fault disturbs the cluster"
    );
    println!(
        "\nThe same fault cannot exist below full-shifting authority: a coupler\n\
         prohibited from buffering a whole frame has nothing to replay (eq. 3)."
    );
}
