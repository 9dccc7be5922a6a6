//! Exploring the formal model interactively: liveness witnesses, the
//! reachable state graph as Graphviz DOT, and reachability queries.
//!
//! ```sh
//! cargo run --release --example model_explorer > cluster.dot
//! dot -Tsvg cluster.dot -o cluster.svg   # if graphviz is installed
//! ```

use tta::core::{
    find_startup_witness, narrate_compressed, ClusterCodec, ClusterConfig, ClusterModel,
};
use tta::guardian::CouplerAuthority;
use tta::liveness::FairGraph;
use tta::modelcheck::Explorer;
use tta::protocol::ProtocolState;

fn main() {
    // --- 1. Liveness witness: the cluster CAN fully start (non-vacuity
    //        of the paper's safety property), and here is how.
    eprintln!("## 1. Shortest path to a fully active 4-node cluster\n");
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    let witness = find_startup_witness(&config).expect("the cluster can start");
    let model = ClusterModel::new(config);
    for line in narrate_compressed(&model, &witness) {
        eprintln!("{line}");
    }
    eprintln!(
        "\n({} slot transitions from all-frozen to all-active)\n",
        witness.transition_count()
    );

    // --- 2. Reachability query: how early can the first replay happen?
    eprintln!("## 2. Reachability: earliest slot with a spent replay budget\n");
    let full = ClusterModel::new(ClusterConfig::paper(CouplerAuthority::FullShifting));
    let first_replay = Explorer::new()
        .find(&full, |s: &tta::core::ClusterState| {
            s.out_of_slot_used() > 0
        })
        .expect("replays are reachable");
    eprintln!(
        "a coupler can commit its first out-of-slot replay after {} slots\n\
         (it needs a buffered frame first — nothing can be replayed before\n\
         the first cold-start frame has crossed the coupler)\n",
        first_replay.transition_count()
    );

    // --- 3. State graph of a 2-node cluster, DOT on stdout.
    eprintln!("## 3. Writing the 2-node passive-coupler state graph to stdout as DOT\n");
    let small_config = ClusterConfig {
        nodes: 2,
        ..ClusterConfig::paper(CouplerAuthority::Passive)
    };
    let codec = ClusterCodec::new(&small_config);
    let graph = FairGraph::build(&ClusterModel::new(small_config), &codec, &[], 200);
    eprintln!(
        "{} states, {} transitions{}",
        graph.state_count(),
        graph.edges_generated(),
        if graph.is_truncated() {
            " (truncated)"
        } else {
            ""
        }
    );
    let dot = graph.to_dot(
        "two_node_cluster",
        |s| {
            s.nodes()
                .iter()
                .map(|n| format!("{}:{}", n.node_id(), n.protocol_state()))
                .collect::<Vec<_>>()
                .join("\\n")
        },
        |s| {
            s.nodes()
                .iter()
                .any(|n| n.protocol_state() == ProtocolState::Active)
        },
    );
    println!("{dot}");
    eprintln!("(highlighted nodes contain an active controller)");
}
