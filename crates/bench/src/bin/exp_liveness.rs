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
//! * `exp_liveness --bench-json [PATH] [--threads N]` — record a
//!   machine-readable snapshot of the liveness hot path (fair-graph
//!   build sequential vs. threaded, plus the SCC check pass) to `PATH`
//!   (default `BENCH_liveness.json`). `--threads` caps the threaded
//!   sweep. Threaded entries carry the same `comparable` /
//!   `speedup_vs_sequential` fields as `BENCH_modelcheck.json`.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tta_analysis::tables::Table;
use tta_bench::{fmt_duration, heading};
use tta_conformance::{ExpectedVerdict, Scenario};
use tta_core::{
    cluster_startup_fairness, narrate_lasso, node_integration_property, verify_cluster_liveness,
    ClusterCodec, ClusterConfig, ClusterModel, LivenessReport, Verdict,
};
use tta_guardian::CouplerAuthority;
use tta_liveness::FairGraph;
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
        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let started = Instant::now();
        let report = verify_cluster_liveness(&config);
        let elapsed = started.elapsed();
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
/// sequential fair-graph build time, the per-node SCC check time, and
/// the threaded builds with their speedups, written as JSON by hand.
fn bench_snapshot(path: &str, max_threads: Option<usize>) {
    let host_cpus = tta_base::default_threads();
    heading("liveness hot-path snapshot (fair-graph build + SCC checks)");
    println!("host CPUs: {host_cpus}");

    let cap = max_threads.unwrap_or(4);
    let sweep: Vec<usize> = [2usize, 4].into_iter().filter(|&t| t <= cap).collect();

    let mut run_blocks = Vec::new();
    // Full shifting explores ~90× the states of small shifting; one
    // timed repetition keeps the snapshot affordable there.
    for (label, authority, runs) in [
        ("paper/small-shifting", CouplerAuthority::SmallShifting, 3),
        ("paper/full-shifting", CouplerAuthority::FullShifting, 1),
    ] {
        let config = ClusterConfig::paper(authority);
        let model = ClusterModel::new(config);
        let codec = ClusterCodec::new(&config);
        let fairness = cluster_startup_fairness(config.nodes);

        let mut graph = None;
        let mut build_secs = f64::INFINITY;
        for _ in 0..runs {
            // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
            let started = Instant::now();
            let g = FairGraph::build(&model, &codec, &fairness, DEFAULT_MAX_STATES);
            build_secs = build_secs.min(started.elapsed().as_secs_f64());
            graph = Some(g);
        }
        let graph = graph.expect("ran at least once");
        let states = graph.state_count();
        println!(
            "{label}: {states} states, {} edges, built in {}",
            graph.edge_count(),
            fmt_duration(std::time::Duration::from_secs_f64(build_secs))
        );

        // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
        let check_started = Instant::now();
        let mut sccs_examined = 0u64;
        let mut verdicts = Vec::with_capacity(config.nodes);
        for node in 0..config.nodes {
            let outcome = graph.check(&node_integration_property(node));
            sccs_examined += outcome.stats.sccs_examined;
            verdicts.push(outcome.verdict);
        }
        let check_secs = check_started.elapsed().as_secs_f64();
        let verdict = if verdicts.contains(&Verdict::Violated) {
            Verdict::Violated
        } else if verdicts.contains(&Verdict::BudgetExhausted) {
            Verdict::BudgetExhausted
        } else {
            Verdict::Holds
        };
        println!(
            "  {} per-node checks: {verdict:?}, {sccs_examined} SCCs in {}",
            config.nodes,
            fmt_duration(std::time::Duration::from_secs_f64(check_secs))
        );

        let mut threaded_entries = Vec::new();
        for &threads in &sweep {
            let mut secs = f64::INFINITY;
            for _ in 0..runs {
                // detlint: allow(DL02) reason=benchmark measurement; wall-clock is the quantity this binary reports
                let started = Instant::now();
                let g = FairGraph::build_with_threads(
                    &model,
                    &codec,
                    &fairness,
                    DEFAULT_MAX_STATES,
                    threads,
                );
                secs = secs.min(started.elapsed().as_secs_f64());
                assert_eq!(g.state_count(), states, "threaded build must agree");
                assert_eq!(
                    g.edge_count(),
                    graph.edge_count(),
                    "threaded build must agree"
                );
            }
            let comparable = threads <= host_cpus;
            let speedup = build_secs / secs;
            println!(
                "  threaded build, {threads} thread(s): {} ({speedup:.2}x sequential{})",
                fmt_duration(std::time::Duration::from_secs_f64(secs)),
                if comparable { "" } else { ", not comparable" }
            );
            threaded_entries.push(format!(
                "        {{\"threads\": {threads}, \"seconds\": {secs:.6}, \
                 \"speedup_vs_sequential\": {speedup:.3}, \"comparable\": {comparable}}}"
            ));
        }

        run_blocks.push(format!(
            "    {{\n      \"config\": \"{label}\",\n      \"verdict\": \"{verdict:?}\",\n      \
             \"states\": {states},\n      \"edges\": {},\n      \"sccs_examined\": {sccs_examined},\n      \
             \"build\": {{\"seconds\": {build_secs:.6}, \"states_per_second\": {:.0}}},\n      \
             \"check_seconds\": {check_secs:.6},\n      \"threaded_build\": [\n{}\n      ]\n    }}",
            graph.edge_count(),
            states as f64 / build_secs,
            threaded_entries.join(",\n"),
        ));
    }

    let json = format!(
        "{{\n  \"snapshot\": \"liveness_throughput\",\n  \"host_cpus\": {host_cpus},\n  \
         \"note\": \"entries with comparable=false used more threads than host CPUs and only time-slice one core; judge scaling on comparable entries\",\n  \
         \"runs\": [\n{}\n  ]\n}}\n",
        run_blocks.join(",\n"),
    );
    std::fs::write(path, &json).unwrap_or_else(|e| {
        eprintln!("error: cannot write {path}: {e}");
        std::process::exit(1);
    });
    println!("\nwrote {path}");
}
