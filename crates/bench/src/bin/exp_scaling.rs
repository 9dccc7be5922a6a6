//! Supplementary experiment S1 — state-space scaling.
//!
//! How the reachable state space and verification time of the Section 4
//! model grow with cluster size and with the replay budget. Not a paper
//! table (the paper fixes 4 nodes), but it substantiates the paper's
//! claim that the model is tractable and maps where it stops being so.
//!
//! Flags:
//!
//! * `--threads N` — run the S1 sweeps with the explorer at `N` worker
//!   threads instead of one. Combined with `--bench-json`, caps the
//!   parallel sweep at `N` threads instead.
//! * `--bench-json [PATH]` — skip the tables and instead record a
//!   machine-readable throughput snapshot (the explorer on one thread
//!   vs. the seed-style visited set vs. the explorer at 2/4/8 threads,
//!   plus visited-set byte accounting) to `PATH` (default
//!   `BENCH_modelcheck.json`). The one-thread run is timed once, as
//!   `sequential_arena`; each parallel entry records its speedup over it
//!   (`speedup_vs_sequential`) and a
//!   `comparable` flag that is `false` whenever the entry used more
//!   threads than the host has CPUs — time-slicing one core says
//!   nothing about parallel scaling, so consumers (the CI bench gate)
//!   must skip non-comparable entries.

use std::time::Instant;
use tta_analysis::tables::Table;
use tta_base::json::Json;
use tta_bench::{
    fmt_duration, fmt_secs, heading, json_obj, json_rounded, json_throughput, seed_style_bfs,
    write_snapshot, SNAPSHOT_NOTE,
};
use tta_core::{
    verify_cluster_with, CheckStrategy, ClusterConfig, ClusterModel, FaultBudget, Verdict,
};
use tta_guardian::CouplerAuthority;

struct Args {
    threads: Option<usize>,
    bench_json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: None,
        bench_json: None,
    };
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--threads" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                args.threads = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--threads needs an integer")),
                );
            }
            "--bench-json" => {
                // Optional path operand; defaults to the committed snapshot name.
                let path = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "BENCH_modelcheck.json".to_string(),
                };
                args.bench_json = Some(path);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!("usage: exp_scaling [--threads N] [--bench-json [PATH]]");
    std::process::exit(2);
}

fn strategy_for(args: &Args) -> CheckStrategy {
    match args.threads {
        Some(threads) => CheckStrategy::ParallelBfs { threads },
        None => CheckStrategy::Bfs,
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.bench_json {
        bench_snapshot(path, args.threads);
        return;
    }
    let strategy = strategy_for(&args);

    heading("S1a — state space vs. cluster size (per coupler authority)");
    let mut table = Table::new(["nodes", "authority", "verdict", "states", "depth", "time"]);
    for nodes in 2..=5 {
        for authority in [
            CouplerAuthority::SmallShifting,
            CouplerAuthority::FullShifting,
        ] {
            let config = ClusterConfig {
                nodes,
                ..ClusterConfig::paper(authority)
            };
            // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
            let started = Instant::now();
            let report = verify_cluster_with(&config, strategy);
            table.row([
                nodes.to_string(),
                authority.to_string(),
                format!("{:?}", report.verdict),
                report.stats.states_explored.to_string(),
                report.stats.depth_reached.to_string(),
                fmt_duration(started.elapsed()),
            ]);
        }
    }
    println!("{table}");

    heading("S1b — replay budget vs. counterexample length (4 nodes, full shifting)");
    let mut table = Table::new(["budget", "verdict", "trace length", "states", "time"]);
    for budget in [
        FaultBudget::AtMost(0),
        FaultBudget::AtMost(1),
        FaultBudget::AtMost(2),
        FaultBudget::Unlimited,
    ] {
        let config = ClusterConfig {
            out_of_slot_budget: budget,
            ..ClusterConfig::paper(CouplerAuthority::FullShifting)
        };
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        let report = verify_cluster_with(&config, strategy);
        table.row([
            budget.to_string(),
            match report.verdict {
                Verdict::Holds => "holds".into(),
                Verdict::Violated => "VIOLATED".to_string(),
                Verdict::BudgetExhausted => "budget exhausted".into(),
            },
            report
                .counterexample_len()
                .map_or_else(|| "—".into(), |l| l.to_string()),
            report.stats.states_explored.to_string(),
            fmt_duration(started.elapsed()),
        ]);
    }
    println!("{table}");
    println!("a zero budget restores safety even for full shifting: the *capability to");
    println!("replay*, not the authority label, is what breaks the property. Constraining");
    println!("the budget lengthens the shortest counterexample, as the paper observes.");
}

/// One timed run; the minimum of `runs` repetitions (throughput snapshots
/// should not be inflated by a cold first run).
fn time_min<F: FnMut() -> u64>(runs: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut states = 0;
    for _ in 0..runs {
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        states = f();
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, states)
}

/// Records `BENCH_modelcheck.json`.
fn bench_snapshot(path: &str, max_threads: Option<usize>) {
    const RUNS: usize = 3;
    let config = ClusterConfig::paper(CouplerAuthority::SmallShifting);
    let host_cpus = tta_base::default_threads();
    heading("model-checking throughput snapshot (paper config, small shifting)");
    println!("host CPUs: {host_cpus}");

    let (seed_secs, seed_states) = time_min(RUNS, || seed_style_bfs(&ClusterModel::new(config)));
    println!(
        "seed-style visited set: {seed_states} states in {}",
        fmt_secs(seed_secs)
    );

    let mut sequential = None;
    let (seq_secs, seq_states) = time_min(RUNS, || {
        let report = verify_cluster_with(&config, CheckStrategy::Bfs);
        let states = report.stats.states_explored;
        sequential = Some(report);
        states
    });
    let sequential = sequential.expect("ran at least once");
    assert_eq!(
        seq_states, seed_states,
        "both visited-set designs must agree"
    );
    println!(
        "arena + compact codec, 1 thread: {seq_states} states in {}",
        fmt_secs(seq_secs)
    );

    // One thread runs the same layer step as the sweep, timed above.
    let cap = max_threads.unwrap_or(8);
    let mut parallel_entries = Vec::new();
    for threads in [2usize, 4, 8].into_iter().filter(|&t| t <= cap) {
        let (secs, states) = time_min(RUNS, || {
            verify_cluster_with(&config, CheckStrategy::ParallelBfs { threads })
                .stats
                .states_explored
        });
        assert_eq!(
            states, seq_states,
            "the explorer must agree with itself at {threads} threads"
        );
        // More workers than CPUs only time-slices one core; such an
        // entry says nothing about parallel scaling and is flagged so
        // the CI bench gate skips it instead of failing on it.
        let comparable = threads <= host_cpus;
        let speedup = seq_secs / secs;
        println!(
            "parallel, {threads} threads: {states} states in {} ({speedup:.2}x 1 thread{})",
            fmt_secs(secs),
            if comparable { "" } else { ", not comparable" }
        );
        parallel_entries.push(json_obj([
            ("threads", Json::UInt(threads as u64)),
            ("seconds", json_rounded(secs, 6)),
            (
                "states_per_second",
                Json::UInt((states as f64 / secs) as u64),
            ),
            ("speedup_vs_sequential", json_rounded(speedup, 3)),
            ("comparable", Json::Bool(comparable)),
        ]));
    }

    let snapshot = json_obj([
        ("snapshot", Json::str("model_checking_throughput")),
        ("config", Json::str("paper/small-shifting")),
        ("host_cpus", Json::UInt(host_cpus as u64)),
        ("note", Json::str(SNAPSHOT_NOTE)),
        ("states", Json::UInt(seq_states)),
        ("visited_bytes", Json::UInt(sequential.stats.visited_bytes)),
        (
            "bytes_per_state",
            json_rounded(sequential.stats.bytes_per_state(), 1),
        ),
        (
            "seed_style_visited_set",
            json_throughput(seed_secs, seed_states),
        ),
        ("sequential_arena", json_throughput(seq_secs, seq_states)),
        ("parallel_arena", Json::Arr(parallel_entries)),
    ]);
    write_snapshot(path, &snapshot);
}
