//! Hot-path timings: the protocol, guardian-buffer, simulator and
//! analysis calls the checker, the campaigns and the Section 6 design
//! loops spend their time in, each timed per call by
//! [`tta_bench::seconds_per_iter`].
//!
//! Usage: `exp_hotpaths [PATH]` — writes `PATH` (default
//! `BENCH_hotpaths.json`), a flat `runs` list of `{workload, threads,
//! comparable, seconds_per_iter, iters_per_second}`. A workload named
//! `group/case` is one case of a family (a size, a node state, a
//! topology); simulator runs are 400 slots each, campaign runs 40
//! trials. `comparable` is `false` when the run used more threads than
//! the host has CPUs.

use tta_analysis::{clock_ratio_limit, figure3_series, max_frame_bits, max_rho};
use tta_base::json::{json_obj, json_rounded, Json};
use tta_bench::{fmt_secs, heading, seconds_per_iter, write_snapshot, SNAPSHOT_NOTE};
use tta_guardian::buffer::simulate_forwarding;
use tta_guardian::CouplerAuthority;
use tta_protocol::{ChannelObservation, ChannelView, Controller, EagerStartPolicy, HostChoices};
use tta_sim::{Campaign, FaultPlan, Scenario, SimBuilder, Topology};
use tta_types::constants::{LINE_ENCODING_BITS, N_FRAME_MIN_BITS, X_FRAME_MAX_BITS};
use tta_types::{FrameKind, NodeId};

/// TDMA slots per round of the controller workloads.
const SLOTS: u16 = 4;
/// Slots per simulator run.
const SIM_SLOTS: u64 = 400;

/// The snapshot's runs, printed as they are timed.
struct Runs {
    host_cpus: usize,
    runs: Vec<Json>,
}

impl Runs {
    fn time<R>(&mut self, workload: &str, threads: usize, f: impl FnMut() -> R) {
        let secs = seconds_per_iter(f);
        println!("{workload:<46} {threads} thread(s)  {:>9}", fmt_secs(secs));
        self.runs.push(json_obj([
            ("workload", Json::str(workload)),
            ("threads", Json::UInt(threads as u64)),
            ("comparable", Json::Bool(threads <= self.host_cpus)),
            ("seconds_per_iter", json_rounded(secs, 12)),
            ("iters_per_second", json_rounded(1.0 / secs, 1)),
        ]));
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    if path.starts_with('-') || args.next().is_some() {
        eprintln!("usage: exp_hotpaths [PATH]");
        std::process::exit(2);
    }
    let host_cpus = tta_base::default_threads();
    heading("hot-path timings, per call");
    println!("host CPUs: {host_cpus}\n");
    let mut runs = Runs {
        host_cpus,
        runs: Vec::new(),
    };
    controller(&mut runs);
    guardian_forwarding(&mut runs);
    simulator(&mut runs);
    analysis(&mut runs);

    let snapshot = json_obj([
        ("snapshot", Json::str("hot_paths")),
        ("host_cpus", Json::UInt(host_cpus as u64)),
        ("note", Json::str(SNAPSHOT_NOTE)),
        ("runs", Json::Arr(runs.runs)),
    ]);
    write_snapshot(&path, &snapshot);
}

/// A node that has listened through two silent slots.
fn listen_node() -> Controller {
    let choices = HostChoices::eager();
    let mut policy = EagerStartPolicy;
    let mut c = Controller::new(NodeId::new(1), SLOTS);
    for _ in 0..2 {
        c = c.step(&ChannelView::silent(), &choices, &mut policy);
    }
    c
}

/// A node integrated on two cold-start frames that then gathered a
/// majority.
fn active_node() -> Controller {
    let choices = HostChoices::eager();
    let mut policy = EagerStartPolicy;
    let mut c = listen_node();
    let cs = ChannelView::both(ChannelObservation::frame(FrameKind::ColdStart, 1));
    c = c.step(&cs, &choices, &mut policy);
    c = c.step(&cs, &choices, &mut policy);
    for id in [3u16, 4, 1] {
        let view = ChannelView::both(ChannelObservation::frame(FrameKind::CState, id));
        c = c.step(&view, &choices, &mut policy);
    }
    c
}

/// The checker calls `Controller::successors` for every node of every
/// expanded state; the simulator steps every node once per slot.
fn controller(runs: &mut Runs) {
    let choices = HostChoices::checking();
    let silent = ChannelView::silent();
    let traffic = ChannelView::both(ChannelObservation::frame(FrameKind::CState, 2));
    let cold = Controller::new(NodeId::new(0), SLOTS);
    let listen = listen_node();
    let active = active_node();
    runs.time("controller_successors/freeze_silent", 1, || {
        cold.successors(&silent, &choices)
    });
    runs.time("controller_successors/listen_with_traffic", 1, || {
        listen.successors(&traffic, &choices)
    });
    runs.time("controller_successors/integrated_with_traffic", 1, || {
        active.successors(&traffic, &choices)
    });

    let eager = HostChoices::eager();
    let views: Vec<ChannelView> = (1..=SLOTS)
        .map(|id| ChannelView::both(ChannelObservation::frame(FrameKind::CState, id)))
        .collect();
    runs.time("controller_step_full_round", 1, || {
        let mut policy = EagerStartPolicy;
        views
            .iter()
            .fold(active, |node, view| node.step(view, &eager, &mut policy))
    });
}

/// The guardian's forwarding buffer at line rate: a maximal X-frame and
/// the eq. (6) frame-size limit, with the guardian's clock 2·10⁻⁴ slow.
fn guardian_forwarding(runs: &mut Runs) {
    let (rate, skewed) = (1.0, 1.0 - 2e-4);
    for bits in [2_076u32, 115_000] {
        runs.time(&format!("guardian_forwarding/{bits}"), 1, || {
            simulate_forwarding(bits, rate, skewed, 4)
        });
    }
}

/// Fault-free simulator runs per topology and cluster size, and the E9
/// campaign at 1/2/4 worker threads.
fn simulator(runs: &mut Runs) {
    for (name, topology, authority) in [
        ("bus", Topology::Bus, CouplerAuthority::Passive),
        (
            "star_small_shifting",
            Topology::Star,
            CouplerAuthority::SmallShifting,
        ),
        (
            "star_full_shifting",
            Topology::Star,
            CouplerAuthority::FullShifting,
        ),
    ] {
        runs.time(&format!("simulation_golden/{name}"), 1, || {
            SimBuilder::new(4)
                .topology(topology)
                .authority(authority)
                .slots(SIM_SLOTS)
                .plan(FaultPlan::none())
                .build()
                .run()
        });
    }
    for nodes in [4usize, 8, 16] {
        runs.time(&format!("simulation_cluster_size/{nodes}"), 1, || {
            SimBuilder::new(nodes)
                .slots(SIM_SLOTS)
                .plan(FaultPlan::none())
                .build()
                .run()
        });
    }
    for threads in [1usize, 2, 4] {
        runs.time("campaign/sos_sender_bus", threads, || {
            Campaign::new(4, Topology::Bus, CouplerAuthority::Passive)
                .trials(40)
                .threads(threads)
                .run(Scenario::SosSender)
        });
    }
}

/// The Section 6 closed forms and the Figure 3 series, which run inside
/// design-space loops.
fn analysis(runs: &mut Runs) {
    let (n_min, x_max, line) = (N_FRAME_MIN_BITS, X_FRAME_MAX_BITS, LINE_ENCODING_BITS);
    let rho = 2e-4;
    runs.time("eq4_max_frame_bits", 1, || max_frame_bits(n_min, line, rho));
    runs.time("eq7_max_rho", 1, || max_rho(n_min, x_max, line));
    runs.time("eq10_clock_ratio_limit", 1, || {
        clock_ratio_limit(x_max, n_min, 4)
    });
    let frame_sizes = [128, 512, x_max];
    for steps in [16u32, 256, 4096] {
        runs.time(&format!("figure3_series/{steps}"), 1, || {
            figure3_series(&frame_sizes, n_min, steps, line)
        });
    }
}
