//! Supplementary experiment S4 — integration liveness under weak fairness.
//!
//! The paper's Section 5 property is pure safety ("no integrated node
//! freezes"); a cluster that never comes up satisfies it vacuously. This
//! experiment checks the complementary *liveness* property per node —
//! `listening(i) ~> integrated(i)` — under weak fairness on each node's
//! startup progress, for all four star-coupler authority levels.
//!
//! Expected rows: passive / time windows / small shifting → the leads-to
//! **holds** for every node; full shifting → a fair lasso counterexample
//! whose cycle keeps a correct node out of active membership forever.
//!
//! Usage:
//!
//! * `exp_liveness` — the S4 paper-style table plus the narrated lasso
//!   for the full-shifting violation.
//! * `exp_liveness [--artifacts DIR] SCENARIO.toml...` — check every
//!   scenario that declares `expect.liveness`; exit non-zero on any
//!   mismatch. With `--artifacts`, rendered lassos of violated runs are
//!   written to `DIR` (one `.lasso.txt` per scenario).
//! * `exp_liveness --bench-json [PATH] [--threads N]` — time the
//!   liveness hot path (the fair-graph build and the per-node check
//!   phase, at 1, 2 and 4 threads) and write the rows to `PATH`
//!   (default `BENCH_liveness.json`) through [`tta_bench::Runs`], the
//!   same writer and row shape as `exp_hotpaths`. `--threads` caps the
//!   sweep.

use std::path::{Path, PathBuf};
use tta_analysis::tables::Table;
use tta_bench::{fmt_duration, heading, timed, Runs};
use tta_conformance::{ExpectedVerdict, Scenario};
use tta_core::{
    cluster_startup_fairness, narrate_lasso, node_integration_property, verify_cluster_liveness,
    ClusterCodec, ClusterConfig, ClusterModel, ClusterState, LivenessReport, Verdict,
};
use tta_guardian::CouplerAuthority;
use tta_liveness::{FairAction, FairGraph, LivenessOutcome, Property};
use tta_modelcheck::DEFAULT_MAX_STATES;

fn main() {
    let mut artifacts: Option<PathBuf> = None;
    let mut scenarios: Vec<PathBuf> = Vec::new();
    let mut bench_json: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut iter = std::env::args().skip(1).peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--artifacts" => {
                let dir = iter
                    .next()
                    .unwrap_or_else(|| usage("--artifacts needs a directory"));
                artifacts = Some(PathBuf::from(dir));
            }
            "--bench-json" => {
                let path = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "BENCH_liveness.json".to_string(),
                };
                bench_json = Some(path);
            }
            "--threads" => {
                let value = iter
                    .next()
                    .unwrap_or_else(|| usage("--threads needs a value"));
                threads = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage("--threads needs an integer")),
                );
            }
            other if other.starts_with("--") => usage(&format!("unknown flag {other}")),
            path => scenarios.push(PathBuf::from(path)),
        }
    }
    if let Some(path) = bench_json {
        if !scenarios.is_empty() || artifacts.is_some() {
            usage("--bench-json does not combine with scenario mode");
        }
        bench_snapshot(&path, threads);
    } else if scenarios.is_empty() {
        if artifacts.is_some() {
            usage("--artifacts only applies to scenario mode");
        }
        paper_table();
    } else {
        scenario_mode(&scenarios, artifacts.as_deref());
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: exp_liveness [--artifacts DIR] [SCENARIO.toml...] | --bench-json [PATH] [--threads N]"
    );
    std::process::exit(2);
}

fn verdict_word(verdict: Verdict) -> &'static str {
    match verdict {
        Verdict::Holds => "holds",
        Verdict::Violated => "VIOLATED",
        Verdict::BudgetExhausted => "budget exhausted",
    }
}

/// One-line per-node verdict summary, e.g. `✓✓✓✗`.
fn per_node_marks(report: &LivenessReport) -> String {
    report
        .per_node
        .iter()
        .map(|v| match v {
            Verdict::Holds => '✓',
            Verdict::Violated => '✗',
            Verdict::BudgetExhausted => '?',
        })
        .collect()
}

fn paper_table() {
    heading("S4 — integration liveness vs. star-coupler authority (4-node cluster)");
    println!("property: for every node i, listening(i) ~> integrated(i)");
    println!(
        "fairness: weak fairness on each node's startup progress (freeze→init, init→listen)\n"
    );

    let mut table = Table::new([
        "coupler authority",
        "liveness verdict",
        "per node",
        "states",
        "SCCs examined",
        "lasso (stem+cycle)",
        "time",
    ]);
    let mut violation: Option<(CouplerAuthority, LivenessReport)> = None;
    for authority in CouplerAuthority::all() {
        let config = ClusterConfig::paper(authority);
        let (report, elapsed) = timed(|| verify_cluster_liveness(&config));
        table.row([
            authority.to_string(),
            verdict_word(report.verdict).to_string(),
            per_node_marks(&report),
            report.stats.states.to_string(),
            report.stats.sccs_examined.to_string(),
            report.lasso.as_ref().map_or_else(
                || "—".to_string(),
                |l| format!("{}+{} slots", l.stem_len(), l.cycle_len()),
            ),
            fmt_duration(elapsed),
        ]);
        if report.verdict == Verdict::Violated && violation.is_none() {
            violation = Some((authority, report));
        }
    }
    println!("{table}");
    println!(
        "reading: under the three restrained authorities every correct node that starts\n\
         listening eventually attains active membership; a full-shifting coupler can replay\n\
         buffered frames so that a correct node is denied integration forever.\n"
    );

    if let Some((authority, report)) = violation {
        let node = report
            .violating_node
            .map_or_else(|| "?".to_string(), |n| n.to_string());
        heading(&format!(
            "fair lasso counterexample ({authority}, node {node} never integrates)"
        ));
        let model = ClusterModel::new(report.config);
        let lasso = report.lasso.as_ref().expect("violated ⇒ lasso");
        for line in narrate_lasso(&model, lasso) {
            println!("{line}");
        }
    }
}

fn scenario_mode(paths: &[PathBuf], artifacts: Option<&Path>) -> ! {
    let mut failures = 0usize;
    let mut checked = 0usize;
    for path in paths {
        let scenario = match Scenario::load(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{}: {e}", path.display());
                failures += 1;
                continue;
            }
        };
        let Some(expected) = scenario.expect.liveness else {
            println!("{}: no expect.liveness — skipped", scenario.name);
            continue;
        };
        checked += 1;
        let config = scenario.checker_config();
        let report = verify_cluster_liveness(&config);
        let ok = match expected {
            ExpectedVerdict::Holds => report.verdict == Verdict::Holds,
            ExpectedVerdict::Violated => report.verdict == Verdict::Violated,
        };
        println!(
            "{}: liveness {} (expected {expected}, {} states, {}) ... {}",
            scenario.name,
            verdict_word(report.verdict),
            report.stats.states,
            fmt_duration(report.stats.build_time + report.stats.check_time),
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            failures += 1;
        }
        if let (Some(dir), Some(lasso)) = (artifacts, report.lasso.as_ref()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
            let file = dir.join(format!("{}.lasso.txt", scenario.name));
            let model = ClusterModel::new(config);
            let mut text = format!(
                "scenario: {}\nviolating node: {}\n\n",
                scenario.name,
                report
                    .violating_node
                    .map_or_else(|| "?".to_string(), |n| n.to_string())
            );
            for line in narrate_lasso(&model, lasso) {
                text.push_str(&line);
                text.push('\n');
            }
            if let Err(e) = std::fs::write(&file, text) {
                eprintln!("error: cannot write {}: {e}", file.display());
                std::process::exit(1);
            }
            println!("  wrote {}", file.display());
        }
    }
    println!("\n{checked} scenario(s) checked, {failures} failure(s)");
    std::process::exit(i32::from(failures > 0));
}

/// Records `BENCH_liveness.json`: for the two headline S4 configs, the
/// fair-graph build (`liveness_build/<authority>`: states and edges,
/// plus the graph's bytes per state at one thread) and the check phase
/// over every node's property (`liveness_check/<authority>`: SCCs
/// examined), at 1 thread and each sweep thread count. Every threaded
/// build and check must be bit-identical to the one-thread run.
fn bench_snapshot(path: &str, max_threads: Option<usize>) {
    heading("liveness hot-path snapshot (fair-graph build + per-node checks)");
    let mut runs = Runs::new("liveness_throughput");
    println!("host CPUs: {}", runs.host_cpus());

    let cap = max_threads.unwrap_or(4);
    let sweep = [1usize, 2, 4].into_iter().filter(|&t| t == 1 || t <= cap);
    // Full shifting explores ~90× the states of small shifting; one
    // timed repetition keeps the snapshot affordable there.
    for (authority, repetitions, expected) in [
        (CouplerAuthority::SmallShifting, 3, Verdict::Holds),
        (CouplerAuthority::FullShifting, 1, Verdict::Violated),
    ] {
        let config = ClusterConfig::paper(authority);
        let model = ClusterModel::new(config);
        let codec = ClusterCodec::new(&config);
        let fairness = cluster_startup_fairness(config.nodes);
        let properties: Vec<Property<ClusterState>> =
            (0..config.nodes).map(node_integration_property).collect();
        let name = authority.token();

        // The one-thread run's states, edges and outcomes.
        let mut one_thread: Option<(usize, usize, Vec<LivenessOutcome<ClusterState>>)> = None;
        for threads in sweep.clone() {
            let (graph, outcomes, build, check) =
                timed_runs(repetitions, threads, &model, &codec, &fairness, &properties);
            let sccs_examined: u64 = outcomes.iter().map(|o| o.stats.sccs_examined).sum();
            let row = runs.record(&format!("liveness_build/{name}"), threads, build);
            row.count("states", graph.state_count() as u64)
                .count("edges", graph.edge_count() as u64);
            if let Some((states, edges, reference)) = &one_thread {
                assert_eq!(
                    (graph.state_count(), graph.edge_count()),
                    (*states, *edges),
                    "threaded build must agree at {threads} threads"
                );
                assert!(
                    same_outcomes(&outcomes, reference),
                    "threaded checks must agree at {threads} threads"
                );
            } else {
                assert!(
                    outcomes.iter().all(|o| o.verdict == expected),
                    "paper/{name}: every node's verdict must be {expected:?}"
                );
                let bytes = graph.approx_bytes() as f64 / graph.state_count() as f64;
                row.per_state("graph_bytes_per_state", bytes);
                one_thread = Some((graph.state_count(), graph.edge_count(), outcomes));
            }
            runs.record(&format!("liveness_check/{name}"), threads, check)
                .count("sccs_examined", sccs_examined);
        }
    }
    runs.write(path);
}

/// `runs` repetitions at `threads` threads of the fair-graph build and
/// the check phase over `properties`: the last repetition's graph and
/// outcomes, then the fastest build and check times in seconds
/// (snapshots should not be inflated by a cold first run).
fn timed_runs<'c>(
    runs: usize,
    threads: usize,
    model: &ClusterModel,
    codec: &'c ClusterCodec,
    fairness: &[FairAction<ClusterState>],
    properties: &[Property<ClusterState>],
) -> (
    FairGraph<'c, ClusterCodec>,
    Vec<LivenessOutcome<ClusterState>>,
    f64,
    f64,
) {
    let (mut build_secs, mut check_secs) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..runs {
        // Free the previous repetition's graph before building the next.
        drop(last.take());
        let (graph, build) = timed(|| {
            FairGraph::build_with_threads(model, codec, fairness, DEFAULT_MAX_STATES, threads)
        });
        build_secs = build_secs.min(build.as_secs_f64());
        let (outcomes, check) = timed(|| graph.check_all(properties, threads));
        check_secs = check_secs.min(check.as_secs_f64());
        last = Some((graph, outcomes));
    }
    let (graph, outcomes) = last.expect("at least one run");
    (graph, outcomes, build_secs, check_secs)
}

/// Whether two check phases agree on every verdict, lasso and SCC count.
fn same_outcomes(a: &[LivenessOutcome<ClusterState>], b: &[LivenessOutcome<ClusterState>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.verdict == y.verdict
                && x.lasso == y.lasso
                && x.stats.sccs_examined == y.stats.sccs_examined
        })
}
