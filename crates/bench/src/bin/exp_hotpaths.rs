//! Hot-path timings: the protocol, guardian-buffer, simulator and
//! analysis calls the checker, the campaigns and the Section 6 design
//! loops spend their time in, the explorer's whole safety check, the
//! fuzzer's coverage probe and one scenario emission, the JSON codec
//! and result-cache open a campaign daemon restarts through, and whole
//! daemon sweeps, each timed per call by
//! [`tta_bench::seconds_per_iter`].
//!
//! Usage: `exp_hotpaths [PATH]` — writes `PATH` (default
//! `BENCH_hotpaths.json`) through [`tta_bench::Runs`]: a flat `runs`
//! list of `{workload, threads, comparable, seconds_per_iter,
//! iters_per_second}` plus each row's named counts. A workload named
//! `group/case` is one case of a family (a size, a node state, a
//! topology); simulator runs are 400 slots each (`simulation_step/*`
//! steps all 400; `run()` skips the rounds of a settled run), campaign
//! runs 40 trials, daemon sweeps 1,024. The `explore/small_shifting_5_nodes`
//! rows, which CI's 2-thread speed floor reads, are each the fastest of
//! five calls interleaved with the other thread count's. `comparable` is
//! `false` when the run used more threads than the host has CPUs.

use std::time::Duration;
use tta_analysis::{clock_ratio_limit, figure3_series, max_frame_bits, max_rho};
use tta_base::hash::mix;
use tta_base::json::Json;
use tta_bench::{heading, DaemonSession, Runs};
use tta_campaignd::cache::Cache;
use tta_campaignd::client::{ReconnectPolicy, SubmitResult};
use tta_campaignd::protocol::trial_line;
use tta_campaignd::runner::TrialVerdict;
use tta_campaignd::spec::{JobSpec, ScenarioSource};
use tta_core::{verify_cluster_with, CheckStrategy, ClusterConfig};
use tta_fuzz::{emit_scenario, EmitRequest, EvalContext, FuzzInput};
use tta_guardian::buffer::simulate_forwarding;
use tta_guardian::sos::SosDomain;
use tta_guardian::CouplerAuthority;
use tta_modellint::{config_coverage, AnalysisOptions};
use tta_protocol::{
    ChannelObservation, ChannelView, Controller, EagerStartPolicy, HostChoices, RestartPolicy,
};
use tta_sim::{
    Campaign, FaultEvent, FaultPersistence, FaultPlan, FaultTarget, NodeFaultKind, Outcome,
    RecoveryOutcome, Scenario, SimBuilder, Topology, TrialResult,
};
use tta_types::constants::{LINE_ENCODING_BITS, N_FRAME_MIN_BITS, X_FRAME_MAX_BITS};
use tta_types::{FrameKind, NodeId};

/// TDMA slots per round of the controller workloads.
const SLOTS: u16 = 4;
/// Slots per simulator run.
const SIM_SLOTS: u64 = 400;
/// A result-cache log line as the campaign daemon writes it.
const CACHE_LINE: &str = concat!(
    r#"{"key":"5fbc1c0ba24cfdbc","index":0,"seed":4293187639553623416,"#,
    r#""outcome":"healthy_node_frozen","recovery":"recovered","unavailability":0.1525,"#,
    r#""ttr":11,"check":"9323ccc36aa788cb"}"#
);
/// Entries in the timed cache log: one 8,192-trial sweep.
const CACHE_ENTRIES: u32 = 8192;
/// Trials per timed daemon sweep: 128 chunks.
const DAEMON_TRIALS: u32 = 1024;
/// Interleaved 1- and 2-thread calls of the speed floor's explorer walk.
const FLOOR_PAIRS: usize = 5;
/// The scenario `tta_fuzz --seed 7` emits for its availability cliff,
/// which the `fuzz/emit` row re-emits.
const SEED7_CLIFF: &str = include_str!("../../../../scenarios/fuzzed_cliff_passive_9b4f25a9.toml");

fn main() {
    let mut args = std::env::args().skip(1);
    let path = args
        .next()
        .unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    if path.starts_with('-') || args.next().is_some() {
        eprintln!("usage: exp_hotpaths [PATH]");
        std::process::exit(2);
    }
    heading("hot-path timings, per call");
    let mut runs = Runs::new("hot_paths");
    println!("host CPUs: {}\n", runs.host_cpus());
    controller(&mut runs);
    guardian_forwarding(&mut runs);
    simulator(&mut runs);
    analysis(&mut runs);
    explorer(&mut runs);
    fuzz_analyses(&mut runs);
    campaign_storage(&mut runs);
    daemon(&mut runs);
    runs.write(&path);
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

/// Fault-free simulator runs per topology and cluster size, 400 steps
/// per cluster size, and the E9 campaign at 1/2/4 worker threads.
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
    // `run()` skips the rounds of a settled run, so the rows above time
    // startup plus a few rounds; these step every slot.
    for nodes in [4usize, 8, 16] {
        runs.time(&format!("simulation_step/{nodes}"), 1, || {
            let mut sim = SimBuilder::new(nodes)
                .slots(SIM_SLOTS)
                .plan(FaultPlan::none())
                .build();
            for _ in 0..SIM_SLOTS {
                sim.step();
            }
            sim
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

/// The explorer's whole safety check on the paper's small-shifting
/// config at 1, 2, 4 and 8 threads, and cut at depth 20 (the A2
/// ablation's third strategy: a prefix of the 34 layers the full search
/// walks). Every thread count must explore the same states. Then the
/// walk CI's 2-thread speed floor reads ([`explore_floor`]).
fn explorer(runs: &mut Runs) {
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    let mut one_thread = None;
    for threads in [1usize, 2, 4, 8] {
        let mut stats = None;
        let row = runs.time("explore/small_shifting", threads, || {
            stats =
                Some(verify_cluster_with(&config, CheckStrategy::ParallelBfs { threads }).stats);
        });
        let stats = stats.expect("timed at least once");
        row.count("states", stats.states_explored);
        match one_thread {
            None => {
                row.per_state("bytes_per_state", stats.bytes_per_state());
                one_thread = Some(stats.states_explored);
            }
            Some(states) => assert_eq!(
                stats.states_explored, states,
                "the explorer must agree with itself at {threads} threads"
            ),
        }
    }
    let mut states = 0;
    runs.time("bounded_bfs_depth20/small_shifting", 1, || {
        states = verify_cluster_with(&config, CheckStrategy::Bounded { depth: 20 })
            .stats
            .states_explored;
    })
    .count("states", states);
    explore_floor(runs, &ClusterConfig { nodes: 5, ..config });
}

/// The explorer on `config` (the 5-node small-shifting space, 931,986
/// states) at 1 and 2 threads, in [`FLOOR_PAIRS`] interleaved pairs of
/// calls: each row is its thread count's fastest call, as the explorer
/// timed its walk. The 40,055-state rows' calls take tens of
/// milliseconds, fill few work chunks per layer and run as one block
/// per thread count, so a busy stretch of a shared host decides their
/// ratio; these calls take about a second, and interleaving exposes
/// both thread counts to the same stretches.
fn explore_floor(runs: &mut Runs, config: &ClusterConfig) {
    let thread_counts = [1usize, 2];
    let mut fastest = [f64::INFINITY; 2];
    let mut last = [None; 2];
    for _ in 0..FLOOR_PAIRS {
        for (slot, &threads) in thread_counts.iter().enumerate() {
            let stats = verify_cluster_with(config, CheckStrategy::ParallelBfs { threads }).stats;
            fastest[slot] = fastest[slot].min(stats.duration.as_secs_f64());
            last[slot] = Some(stats);
        }
    }
    let [one, two] = last.map(|stats| stats.expect("at least one pair"));
    assert_eq!(
        one.states_explored, two.states_explored,
        "the explorer must agree with itself at 2 threads"
    );
    runs.record("explore/small_shifting_5_nodes", 1, fastest[0])
        .count("states", one.states_explored)
        .per_state("bytes_per_state", one.bytes_per_state());
    runs.record("explore/small_shifting_5_nodes", 2, fastest[1])
        .count("states", two.states_explored);
}

/// The fuzzer's model work outside its candidate runs: the startup
/// coverage probe (one 2^14-state reachable-space analysis per
/// authority, as `fuzz_with` runs it) and one emission of the seed-7
/// cliff (its conformance run and the lint of the finished file).
fn fuzz_analyses(runs: &mut Runs) {
    let probe = AnalysisOptions {
        max_states: 1 << 14,
    };
    let mut states = 0;
    runs.time("modellint/coverage_probe", 1, || {
        states = CouplerAuthority::all()
            .into_iter()
            .map(|authority| {
                let config = ClusterConfig::paper(authority);
                let target = format!("fuzz:{}", authority.token());
                config_coverage(&target, &config, &probe).states as u64
            })
            .sum();
    })
    .count("states", states);

    let input = FuzzInput {
        events: vec![FaultEvent {
            target: FaultTarget::Node {
                node: NodeId::new(2),
                kind: NodeFaultKind::Sos {
                    domain: SosDomain::Time,
                    magnitude: 0.5,
                },
            },
            from_slot: 50,
            to_slot: 51,
            persistence: FaultPersistence::Transient,
        }],
    };
    let ctx = EvalContext::default();
    let request = EmitRequest {
        input: &input,
        authority: CouplerAuthority::Passive,
        kind_word: "cliff",
        description: "availability cliff under passive: 0.9650 -> 0.1000 (tta_fuzz seed 7)"
            .to_string(),
        ctx: &ctx,
    };
    let mut toml = String::new();
    runs.time("fuzz/emit", 1, || {
        toml = emit_scenario(&request)
            .expect("the seed-7 cliff emits")
            .toml;
    });
    assert_eq!(
        toml, SEED7_CLIFF,
        "the emission must reproduce the pinned scenario"
    );
}

/// A trial record shaped like a campaign's: a full 64-bit seed, a
/// fractional unavailability and, for a third of the trials, a
/// reintegration time.
fn trial(index: u32) -> TrialResult {
    let seed = mix(u64::from(index) ^ 0xDB5_2004);
    let frozen = seed.is_multiple_of(3);
    TrialResult {
        index,
        seed,
        outcome: if frozen {
            Outcome::HealthyNodeFrozen
        } else {
            Outcome::Contained
        },
        recovery: if frozen {
            RecoveryOutcome::Recovered
        } else {
            RecoveryOutcome::Contained
        },
        unavailability: (seed % 400) as f64 / 400.0,
        time_to_reintegration: frozen.then_some(seed % 16),
    }
}

/// A JSON array of short strings, each with a multi-byte character and
/// an escape, at least `bytes` long.
fn short_strings(bytes: usize) -> String {
    let mut text = String::from("[");
    for i in 0u64.. {
        if text.len() >= bytes {
            break;
        }
        if i > 0 {
            text.push(',');
        }
        text.push_str(&Json::str(format!("trial-{} é\t{}", mix(i) % 10_000, i % 100)).render());
    }
    text.push(']');
    text
}

/// What a campaign daemon restarts through: the JSON codec on one cache
/// line, one trial line and a 1 MiB document of short strings, and
/// `Cache::open` of an 8,192-entry log.
fn campaign_storage(runs: &mut Runs) {
    runs.time("json/parse_cache_line", 1, || Json::parse(CACHE_LINE));
    let verdict = TrialVerdict::Completed(trial(3));
    runs.time("json/render_trial_line", 1, || trial_line(&verdict));
    let strings = short_strings(1 << 20);
    runs.time("json/parse_1mib_strings", 1, || Json::parse(&strings));

    let dir = std::env::temp_dir().join(format!("exp_hotpaths-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let entries: Vec<(u64, TrialResult)> = (0..CACHE_ENTRIES)
        .map(|i| (mix(u64::from(i) + 1), trial(i)))
        .collect();
    Cache::open(&dir)
        .and_then(|cache| cache.insert_batch(&entries))
        .expect("fill the cache log");
    runs.time("campaignd/cache_open_8192", 1, || {
        let cache = Cache::open(&dir).expect("open the cache log");
        assert_eq!(cache.len(), CACHE_ENTRIES as usize);
        cache
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The daemon rows' sweep: the SOS-sender cell (star, small shifting,
/// 400 slots) with a 60-slot fault and watchdog restarts after 8 silent
/// slots, 1,024 trials derived from `seed`.
fn daemon_job(seed: u64) -> JobSpec {
    JobSpec {
        trials: DAEMON_TRIALS,
        policy: RestartPolicy::Watchdog { silence_slots: 8 },
        fault_duration: Some(60),
        seed,
        ..JobSpec::new(ScenarioSource::Builtin(Scenario::SosSender))
    }
}

/// One sweep through the resilient client path, streamed and dropped.
fn sweep(session: &DaemonSession, job: &JobSpec, workers: usize) -> SubmitResult {
    session
        .client
        .submit_resilient(job, Some(workers), &ReconnectPolicy::default(), &mut |_| {})
        .unwrap_or_else(|e| {
            eprintln!("error: daemon sweep failed: {e}");
            std::process::exit(1);
        })
}

/// Cold sweeps on a private daemon with `workers` workers, its stock
/// config edited by `configure`: each call takes the next `seed`, so
/// every trial computes.
fn cold_sweeps(
    runs: &mut Runs,
    workload: &str,
    workers: usize,
    seed: &mut u64,
    configure: impl FnOnce(&mut tta_campaignd::server::ServerConfig),
) {
    let session = DaemonSession::private(|config| {
        config.workers = workers;
        configure(config);
    });
    runs.time(workload, workers, || {
        *seed += 1;
        let stats = sweep(&session, &daemon_job(*seed), workers).stats;
        assert_eq!(
            (stats.computed, stats.cache_hits, stats.resumed_trials),
            (u64::from(DAEMON_TRIALS), 0, 0),
            "a cold sweep computes every trial"
        );
    })
    .count("trials", u64::from(DAEMON_TRIALS));
}

/// Whole sweeps through a private in-process daemon, the service the
/// E9/E10 `--daemon` campaigns run on. Cold rows run at 1, 2, 4 and 8
/// workers. The relaxed row is the cold 2-worker row with supervision
/// asleep (5 s scan tick, one-hour trial deadline, so it never fires):
/// the two bound what supervision costs a healthy sweep (E13). The warm
/// row answers one sweep from the filled cache; each call first deletes
/// the journals, so nothing resumes.
fn daemon(runs: &mut Runs) {
    let mut seed = 0xDB5_2004;
    for workers in [1usize, 2, 4, 8] {
        cold_sweeps(runs, "campaignd/cold_1024", workers, &mut seed, |_| {});
    }
    cold_sweeps(
        runs,
        "campaignd/cold_1024_relaxed",
        2,
        &mut seed,
        |config| {
            config.supervision.tick = Duration::from_secs(5);
            config.supervision.trial_deadline = Duration::from_secs(3600);
        },
    );

    let session = DaemonSession::private(|config| config.workers = 2);
    let job = daemon_job(seed);
    let cold = sweep(&session, &job, 2).trials;
    let journals = session.state_dir().expect("a private daemon").join("jobs");
    runs.time("campaignd/warm_1024", 2, || {
        // Only a quarantine creates a journal, so `jobs/` may not exist.
        if journals.exists() {
            std::fs::remove_dir_all(&journals).expect("clear the journals");
        }
        let warm = sweep(&session, &job, 2);
        assert_eq!(
            (
                warm.stats.cache_hits,
                warm.stats.computed,
                warm.stats.resumed_trials
            ),
            (u64::from(DAEMON_TRIALS), 0, 0),
            "a warm sweep answers every trial from the cache"
        );
        assert_eq!(warm.trials, cold, "the cache must not change results");
    })
    .count("trials", u64::from(DAEMON_TRIALS));
}
